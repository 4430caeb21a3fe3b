package main

import (
	"strings"
	"testing"
)

const benchText = `goos: linux
goarch: amd64
pkg: dlrmperf
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkCalibrateParallel  	       2	 734804618 ns/op	 6590592 B/op	  220363 allocs/op
BenchmarkCalibrateParallel  	       2	 742117754 ns/op	 6590600 B/op	  220365 allocs/op
BenchmarkPredictBatchCached-8 	   41731	     29180 ns/op	   12520 B/op	     151 allocs/op
BenchmarkPredictBatchCached-8 	   39862	     29054 ns/op	   12524 B/op	     152 allocs/op
PASS
ok  	dlrmperf	26.656s
`

func parsed(t *testing.T) Suite {
	t.Helper()
	s, err := parseBench(strings.NewReader(benchText))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestParseBench: names normalize (Benchmark prefix, -GOMAXPROCS
// suffix), and repeated -count lines keep the per-metric minimum.
func TestParseBench(t *testing.T) {
	s := parsed(t)
	if len(s.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(s.Benchmarks), s)
	}
	cal, ok := s.Benchmarks["CalibrateParallel"]
	if !ok {
		t.Fatalf("CalibrateParallel missing: %+v", s)
	}
	if cal.NsPerOp != 734804618 || cal.AllocsPerOp != 220363 || cal.BytesPerOp != 6590592 || cal.Samples != 2 {
		t.Errorf("CalibrateParallel min-aggregation wrong: %+v", cal)
	}
	pb, ok := s.Benchmarks["PredictBatchCached"]
	if !ok {
		t.Fatalf("PredictBatchCached (suffix-stripped) missing: %+v", s)
	}
	if pb.NsPerOp != 29054 || pb.AllocsPerOp != 151 || pb.BytesPerOp != 12520 {
		t.Errorf("PredictBatchCached min-aggregation wrong: %+v", pb)
	}
}

func TestParseBenchRejectsEmpty(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Fatal("empty bench text accepted")
	}
}

// TestCompareIdenticalPasses: the tree compared against itself is
// never a regression.
func TestCompareIdenticalPasses(t *testing.T) {
	s := parsed(t)
	report, regressions := compare(s, s, 0.25, 0.10)
	if len(regressions) != 0 {
		t.Fatalf("self-compare regressed: %v\n%s", regressions, report)
	}
}

// TestCompareSyntheticAllocRegression is the gate's acceptance
// criterion kept as a permanent test: a synthetic 2x allocs/op
// regression must fail even when timing is unchanged.
func TestCompareSyntheticAllocRegression(t *testing.T) {
	base := parsed(t)
	cur := Suite{Benchmarks: map[string]Sample{}}
	for name, s := range base.Benchmarks {
		s.AllocsPerOp *= 2
		cur.Benchmarks[name] = s
	}
	report, regressions := compare(base, cur, 0.25, 0.10)
	if len(regressions) != 2 {
		t.Fatalf("2x allocs regression produced %d failures, want 2:\n%s", len(regressions), report)
	}
	for _, r := range regressions {
		if !strings.Contains(r, "allocs/op") {
			t.Errorf("regression %q does not name allocs/op", r)
		}
	}
	if !strings.Contains(report, "ALLOC REGRESSION") {
		t.Errorf("report does not flag the alloc regression:\n%s", report)
	}
}

// TestCompareTimeRegression: +50% ns/op trips the default +25% bound;
// +10% does not.
func TestCompareTimeRegression(t *testing.T) {
	base := parsed(t)
	slow := Suite{Benchmarks: map[string]Sample{}}
	for name, s := range base.Benchmarks {
		s.NsPerOp *= 1.5
		slow.Benchmarks[name] = s
	}
	if _, regressions := compare(base, slow, 0.25, 0.10); len(regressions) != 2 {
		t.Fatalf("+50%% time regression produced %d failures, want 2", len(regressions))
	}
	mild := Suite{Benchmarks: map[string]Sample{}}
	for name, s := range base.Benchmarks {
		s.NsPerOp *= 1.1
		mild.Benchmarks[name] = s
	}
	if report, regressions := compare(base, mild, 0.25, 0.10); len(regressions) != 0 {
		t.Fatalf("+10%% time flagged as regression: %v\n%s", regressions, report)
	}
}

// TestCompareShowsBytes: the table prints both runs' B/op beside the
// allocation counts, and B/op gates nothing: a run that moves 3x the
// bytes with the same allocs/op and time passes.
func TestCompareShowsBytes(t *testing.T) {
	base := parsed(t)
	heavy := Suite{Benchmarks: map[string]Sample{}}
	for name, s := range base.Benchmarks {
		s.BytesPerOp *= 3
		heavy.Benchmarks[name] = s
	}
	report, regressions := compare(base, heavy, 0.25, 0.10)
	if len(regressions) != 0 {
		t.Fatalf("3x B/op flagged as regression: %v\n%s", regressions, report)
	}
	if !strings.Contains(report, "base B/op") || !strings.Contains(report, "cur B/op") {
		t.Fatalf("report has no B/op columns:\n%s", report)
	}
	for _, line := range strings.Split(report, "\n") {
		if !strings.HasPrefix(line, "CalibrateParallel ") {
			continue
		}
		if f := strings.Fields(line); len(f) != 9 || f[7] != "6590592" || f[8] != "19771776" {
			t.Errorf("CalibrateParallel row %q: want base and current B/op 6590592 and 19771776 in the last two columns", line)
		}
		return
	}
	t.Fatalf("no CalibrateParallel row:\n%s", report)
}

// TestRatchetTightens: a faster current run pulls the baseline down to
// the new minima, per metric independently.
func TestRatchetTightens(t *testing.T) {
	base := parsed(t)
	cur := Suite{Benchmarks: map[string]Sample{}}
	for name, s := range base.Benchmarks {
		s.NsPerOp *= 0.5
		s.AllocsPerOp /= 2
		s.Samples = 5
		cur.Benchmarks[name] = s
	}
	merged, notes := ratchetSuite(base, cur)
	if len(notes) != 2 {
		t.Fatalf("ratchet produced %d notes, want 2: %v", len(notes), notes)
	}
	for name, bs := range base.Benchmarks {
		ms := merged.Benchmarks[name]
		if ms.NsPerOp != bs.NsPerOp*0.5 || ms.AllocsPerOp != bs.AllocsPerOp/2 {
			t.Errorf("%s not tightened: base %+v merged %+v", name, bs, ms)
		}
		if ms.Samples != 5 {
			t.Errorf("%s did not take current sample count: %+v", name, ms)
		}
	}
}

// TestRatchetNeverLoosens is the gate's key invariant: a slower,
// heavier current run leaves every baseline metric untouched, so a
// ratchet run can only ever keep or shrink the bounds.
func TestRatchetNeverLoosens(t *testing.T) {
	base := parsed(t)
	cur := Suite{Benchmarks: map[string]Sample{}}
	for name, s := range base.Benchmarks {
		s.NsPerOp *= 3
		s.BytesPerOp *= 3
		s.AllocsPerOp *= 3
		cur.Benchmarks[name] = s
	}
	merged, notes := ratchetSuite(base, cur)
	if len(notes) != 0 {
		t.Fatalf("slower run produced ratchet notes: %v", notes)
	}
	for name, bs := range base.Benchmarks {
		if merged.Benchmarks[name] != bs {
			t.Errorf("%s loosened: base %+v merged %+v", name, bs, merged.Benchmarks[name])
		}
	}
}

// TestRatchetMixedDirections: one metric improves while another
// regresses; only the improvement lands.
func TestRatchetMixedDirections(t *testing.T) {
	base := parsed(t)
	cur := Suite{Benchmarks: map[string]Sample{}}
	for name, s := range base.Benchmarks {
		s.NsPerOp *= 0.8 // faster
		s.AllocsPerOp *= 2
		cur.Benchmarks[name] = s
	}
	merged, _ := ratchetSuite(base, cur)
	for name, bs := range base.Benchmarks {
		ms := merged.Benchmarks[name]
		if ms.NsPerOp != bs.NsPerOp*0.8 {
			t.Errorf("%s ns/op not tightened: %+v", name, ms)
		}
		if ms.AllocsPerOp != bs.AllocsPerOp {
			t.Errorf("%s allocs/op loosened from %d to %d", name, bs.AllocsPerOp, ms.AllocsPerOp)
		}
	}
}

// TestRatchetAddsAndKeeps: benchmarks new in the current run join the
// baseline; baseline-only benchmarks survive so a ratchet run can never
// silently drop a gate.
func TestRatchetAddsAndKeeps(t *testing.T) {
	base := parsed(t)
	cur := Suite{Benchmarks: map[string]Sample{
		"PredictSingleCached": {NsPerOp: 900, BytesPerOp: 512, AllocsPerOp: 3, Samples: 5},
	}}
	merged, notes := ratchetSuite(base, cur)
	if len(merged.Benchmarks) != len(base.Benchmarks)+1 {
		t.Fatalf("merged has %d benchmarks, want %d", len(merged.Benchmarks), len(base.Benchmarks)+1)
	}
	if got := merged.Benchmarks["PredictSingleCached"]; got.NsPerOp != 900 || got.AllocsPerOp != 3 {
		t.Errorf("new benchmark not added verbatim: %+v", got)
	}
	for name, bs := range base.Benchmarks {
		if merged.Benchmarks[name] != bs {
			t.Errorf("baseline-only %s changed: %+v", name, merged.Benchmarks[name])
		}
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "added") {
		t.Errorf("added benchmark not noted: %v", notes)
	}
}

// TestCompareMissingBenchmark: a benchmark that vanished from the
// current run fails the gate (a silently-deleted benchmark must not
// pass).
func TestCompareMissingBenchmark(t *testing.T) {
	base := parsed(t)
	cur := Suite{Benchmarks: map[string]Sample{
		"CalibrateParallel": base.Benchmarks["CalibrateParallel"],
	}}
	_, regressions := compare(base, cur, 0.25, 0.10)
	if len(regressions) != 1 || !strings.Contains(regressions[0], "missing") {
		t.Fatalf("missing benchmark not flagged: %v", regressions)
	}
}

// TestCompareZeroAllocBaselineIsABound: a baseline that MEASURED 0
// allocs/op (it has samples) fails on the first allocation — ratcheting
// a hot path down to zero must not switch its tripwire off. A baseline
// with no alloc measurement, and a benchmark the baseline does not
// list, still pass.
func TestCompareZeroAllocBaselineIsABound(t *testing.T) {
	base := Suite{Benchmarks: map[string]Sample{
		"Measured":   {NsPerOp: 400, AllocsPerOp: 0, Samples: 5},
		"Unmeasured": {NsPerOp: 400, AllocsPerOp: -1, Samples: 5},
		"HandEdited": {NsPerOp: 400},
	}}
	cur := Suite{Benchmarks: map[string]Sample{
		"Measured":   {NsPerOp: 400, AllocsPerOp: 1, Samples: 5},
		"Unmeasured": {NsPerOp: 400, AllocsPerOp: 1, Samples: 5},
		"HandEdited": {NsPerOp: 400, AllocsPerOp: 1, Samples: 5},
		"NotInBase":  {NsPerOp: 400, AllocsPerOp: 9, Samples: 5},
	}}
	report, regressions := compare(base, cur, 0.25, 0.10)
	if len(regressions) != 1 || !strings.Contains(regressions[0], "Measured: allocs/op") {
		t.Fatalf("0 -> 1 alloc: regressions = %v, want exactly Measured's allocs/op\n%s", regressions, report)
	}
	if report, regressions := compare(base, base, 0.25, 0.10); len(regressions) != 0 {
		t.Fatalf("0 -> 0 allocs regressed: %v\n%s", regressions, report)
	}
}

// onBox returns s with every time scaled and the given host recorded.
func onBox(s Suite, h Host, timeScale float64) Suite {
	out := Suite{Host: &h, Benchmarks: map[string]Sample{}}
	for name, b := range s.Benchmarks {
		b.NsPerOp *= timeScale
		out.Benchmarks[name] = b
	}
	return out
}

// TestParseBenchRecordsHost: the parsed suite says where it ran — the
// cpu: line and the -GOMAXPROCS suffix of the benchmark names.
func TestParseBenchRecordsHost(t *testing.T) {
	s := parsed(t)
	want := Host{GOMAXPROCS: 8, CPU: "Intel(R) Xeon(R) Processor @ 2.10GHz"}
	if s.Host == nil || *s.Host != want {
		t.Fatalf("host = %+v, want %+v", s.Host, want)
	}
}

// TestCompareTimeAcrossBoxes is the two halves of the cross-box rule.
// A 3x ns/op excess fails the gate when both suites ran on the same box
// (or the baseline never said where it ran), and is annotated, not
// failed, when they say they ran on different ones. An allocs/op
// excess fails either way: allocation counts are portable.
func TestCompareTimeAcrossBoxes(t *testing.T) {
	base := parsed(t)
	small := Host{GOMAXPROCS: 2, CPU: "some smaller box"}

	if _, regressions := compare(base, onBox(base, *base.Host, 3), 0.25, 0.10); len(regressions) != 2 {
		t.Errorf("same box, 3x time: %d failures, want 2", len(regressions))
	}
	legacy := Suite{Benchmarks: base.Benchmarks}
	if _, regressions := compare(legacy, onBox(base, small, 3), 0.25, 0.10); len(regressions) != 2 {
		t.Errorf("baseline without a host, 3x time: %d failures, want 2", len(regressions))
	}

	report, regressions := compare(base, onBox(base, small, 3), 0.25, 0.10)
	if len(regressions) != 0 {
		t.Errorf("different box, 3x time failed the gate: %v", regressions)
	}
	if !strings.Contains(report, "not gated") || !strings.Contains(report, small.CPU) {
		t.Errorf("report does not say the times were not gated, or why:\n%s", report)
	}

	leaky := onBox(base, small, 3)
	for name, s := range leaky.Benchmarks {
		s.AllocsPerOp *= 2
		leaky.Benchmarks[name] = s
	}
	if _, regressions := compare(base, leaky, 0.25, 0.10); len(regressions) != 2 {
		t.Errorf("different box, 2x allocs: %d failures, want 2", len(regressions))
	}
}

// TestRatchetAcrossBoxesKeepsTimes: a run on another box tightens the
// portable bounds and leaves the baseline's times, and its host, alone.
func TestRatchetAcrossBoxesKeepsTimes(t *testing.T) {
	base := parsed(t)
	cur := onBox(base, Host{GOMAXPROCS: 64, CPU: "some faster box"}, 0.1)
	for name, s := range cur.Benchmarks {
		s.AllocsPerOp--
		cur.Benchmarks[name] = s
	}
	cur.Benchmarks["New"] = Sample{NsPerOp: 5, BytesPerOp: 6, AllocsPerOp: 7, Samples: 1}
	merged, _ := ratchetSuite(base, cur)
	if *merged.Host != *base.Host {
		t.Errorf("host moved to %+v", merged.Host)
	}
	for name, bs := range base.Benchmarks {
		ms := merged.Benchmarks[name]
		if ms.NsPerOp != bs.NsPerOp || ms.AllocsPerOp != bs.AllocsPerOp-1 {
			t.Errorf("%s: %+v, want the baseline's time and the run's allocs (base %+v)", name, ms, bs)
		}
	}
	if n := merged.Benchmarks["New"]; n.NsPerOp != 0 || n.AllocsPerOp != 7 {
		t.Errorf("new benchmark from another box = %+v, want its allocs and no time bound", n)
	}
	// A baseline from before hosts were recorded is gated as if it were
	// this box's, so this box's ratchet labels it and merges times.
	legacy := Suite{Benchmarks: base.Benchmarks}
	merged, _ = ratchetSuite(legacy, cur)
	if merged.Host == nil || *merged.Host != *cur.Host {
		t.Errorf("unlabelled baseline ratcheted to host %+v, want %+v", merged.Host, cur.Host)
	}
	if got, want := merged.Benchmarks["CalibrateParallel"].NsPerOp, cur.Benchmarks["CalibrateParallel"].NsPerOp; got != want {
		t.Errorf("unlabelled baseline kept %v ns/op, want the faster %v", got, want)
	}
}
