// Command benchdiff is the bench-regression gate behind `make
// bench-check` and the CI bench job. It has two modes sharing one JSON
// schema:
//
//	go test -run xxx -bench 'PredictSingleCached$|CalibrateParallel$' -benchmem -count 5 . \
//	  | benchdiff -parse -o BENCH_pr.json
//	benchdiff -baseline BENCH_baseline.json -current BENCH_pr.json
//
// -parse reads `go test -bench` text and writes one entry per
// benchmark with the minimum ns/op, B/op, and allocs/op across the
// -count samples (minimum, not mean: scheduler noise only ever adds
// time, so the minimum is the most reproducible estimate across
// machines).
//
// The compare mode fails (exit 1) when any baseline benchmark is
// missing from the current run, slower than the time threshold
// (-max-time, default +25% ns/op), or allocating over the allocation
// threshold (-max-allocs, default +10% allocs/op). Allocation counts
// are deterministic and portable, so the tight bound is the real
// tripwire on every machine. A time is a property of the box that
// measured it: -parse records GOMAXPROCS and the CPU model beside the
// numbers, and when baseline and current run both say where they ran
// and disagree, an ns/op excess is annotated in the report instead of
// failing the gate (and -ratchet leaves the baseline's times alone).
// The table also shows both runs' B/op beside the allocation counts,
// for information: no bound applies to it.
//
// The ratchet mode (`make bench-ratchet`) makes performance wins
// permanent:
//
//	benchdiff -ratchet -baseline BENCH_baseline.json -current BENCH_pr.json -o BENCH_baseline.json
//
// rewrites the baseline with, per benchmark and per metric, the
// minimum of the old baseline and the current run — benchmarks new in
// the current run are added, baseline-only benchmarks are kept, and no
// metric can ever loosen (a slower current run leaves the baseline
// byte-identical). Committing the ratcheted baseline turns today's
// improvement into tomorrow's regression gate: a future PR that gives
// the headroom back fails the ordinary compare.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Sample is one benchmark's aggregated measurement.
type Sample struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Samples     int     `json:"samples"`
}

// Host is the shape of the box a suite was measured on, as `go test
// -bench` prints it.
type Host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
}

func (h Host) String() string { return fmt.Sprintf("%s x%d", h.CPU, h.GOMAXPROCS) }

// Suite maps normalized benchmark names (Benchmark prefix and
// GOMAXPROCS suffix stripped) to their measurements. Host is nil in
// suites written before it was recorded.
type Suite struct {
	Host       *Host             `json:"host,omitempty"`
	Benchmarks map[string]Sample `json:"benchmarks"`
}

// sameBox reports whether times in a and b may be compared: both ran on
// the same box shape, or one of them never said where it ran (the gate
// then behaves as it did before hosts were recorded).
func sameBox(a, b Suite) bool {
	return a.Host == nil || b.Host == nil || *a.Host == *b.Host
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}

func main() {
	parse := flag.Bool("parse", false, "parse `go test -bench` text from stdin (or -in) into JSON")
	in := flag.String("in", "-", "bench text input for -parse (- for stdin)")
	out := flag.String("o", "-", "JSON output for -parse (- for stdout)")
	baseline := flag.String("baseline", "", "baseline suite JSON (compare/ratchet mode)")
	current := flag.String("current", "", "current suite JSON (compare/ratchet mode)")
	ratchet := flag.Bool("ratchet", false, "tighten the baseline to per-metric minima of baseline and current, writing to -o")
	maxTime := flag.Float64("max-time", 0.25, "maximum allowed ns/op regression (0.25 = +25%)")
	maxAllocs := flag.Float64("max-allocs", 0.10, "maximum allowed allocs/op regression (0.10 = +10%)")
	flag.Parse()

	if *parse {
		var r io.Reader = os.Stdin
		if *in != "-" {
			f, err := os.Open(*in)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			r = f
		}
		suite, err := parseBench(r)
		if err != nil {
			fail(err)
		}
		if err := writeSuite(*out, suite); err != nil {
			fail(err)
		}
		return
	}

	if *baseline == "" || *current == "" {
		fail(fmt.Errorf("compare mode needs -baseline and -current (or use -parse)"))
	}
	base, err := loadSuite(*baseline)
	if err != nil {
		fail(err)
	}
	cur, err := loadSuite(*current)
	if err != nil {
		fail(err)
	}
	if *ratchet {
		merged, notes := ratchetSuite(base, cur)
		for _, n := range notes {
			fmt.Println(n)
		}
		if len(notes) == 0 {
			fmt.Println("ratchet: no metric tightened; baseline unchanged")
		}
		if err := writeSuite(*out, merged); err != nil {
			fail(err)
		}
		return
	}
	report, regressions := compare(base, cur, *maxTime, *maxAllocs)
	fmt.Print(report)
	if len(regressions) > 0 {
		fail(fmt.Errorf("%d benchmark regression(s)", len(regressions)))
	}
}

// writeSuite marshals a suite to path ("-" for stdout).
func writeSuite(path string, s Suite) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ratchetSuite merges the current run into the baseline, keeping per
// benchmark and per metric the minimum of the two. Benchmarks only in
// the baseline survive unchanged; benchmarks only in the current run
// are added. The merge is monotone: no metric in the returned suite is
// ever larger than its baseline value, so a slower current run cannot
// loosen the gate. Times only merge between suites measured on the
// same box (sameBox). notes describes each tightening for the log.
func ratchetSuite(base, cur Suite) (Suite, []string) {
	merged := Suite{Host: base.Host, Benchmarks: make(map[string]Sample, len(base.Benchmarks))}
	if merged.Host == nil {
		// The gate has been holding this box to the unlabelled times;
		// the box that ratchets them puts its name on them.
		merged.Host = cur.Host
	}
	for name, bs := range base.Benchmarks {
		merged.Benchmarks[name] = bs
	}
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	var notes []string
	times := sameBox(base, cur)
	if !times {
		notes = append(notes, fmt.Sprintf("ratchet: ns/op left alone: baseline measured on %s, this run on %s", base.Host, cur.Host))
	}
	for _, name := range names {
		cs := cur.Benchmarks[name]
		if !times {
			cs.NsPerOp = 0 // another box's time bounds nothing here
		}
		bs, ok := merged.Benchmarks[name]
		if !ok {
			merged.Benchmarks[name] = cs
			notes = append(notes, fmt.Sprintf("ratchet: %s added (%.0f ns/op, %d allocs/op)",
				name, cs.NsPerOp, cs.AllocsPerOp))
			continue
		}
		next := bs
		var parts []string
		if cs.NsPerOp > 0 && (bs.NsPerOp <= 0 || cs.NsPerOp < bs.NsPerOp) {
			next.NsPerOp = cs.NsPerOp
			parts = append(parts, fmt.Sprintf("ns/op %.0f -> %.0f", bs.NsPerOp, cs.NsPerOp))
		}
		if cs.BytesPerOp >= 0 && (bs.BytesPerOp < 0 || cs.BytesPerOp < bs.BytesPerOp) {
			next.BytesPerOp = cs.BytesPerOp
			parts = append(parts, fmt.Sprintf("B/op %d -> %d", bs.BytesPerOp, cs.BytesPerOp))
		}
		if cs.AllocsPerOp >= 0 && (bs.AllocsPerOp < 0 || cs.AllocsPerOp < bs.AllocsPerOp) {
			next.AllocsPerOp = cs.AllocsPerOp
			parts = append(parts, fmt.Sprintf("allocs/op %d -> %d", bs.AllocsPerOp, cs.AllocsPerOp))
		}
		if len(parts) == 0 {
			continue // current run is no better anywhere: baseline entry untouched
		}
		next.Samples = cs.Samples
		merged.Benchmarks[name] = next
		notes = append(notes, fmt.Sprintf("ratchet: %s tightened (%s)", name, strings.Join(parts, ", ")))
	}
	return merged, notes
}

func loadSuite(path string) (Suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Suite{}, err
	}
	var s Suite
	if err := json.Unmarshal(data, &s); err != nil {
		return Suite{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(s.Benchmarks) == 0 {
		return Suite{}, fmt.Errorf("%s holds no benchmarks", path)
	}
	return s, nil
}

// normalizeName strips the Benchmark prefix and the -GOMAXPROCS
// suffix, so runs from machines with different core counts compare. It
// also returns the GOMAXPROCS the suffix states (1 when there is none:
// `go test` omits it then).
func normalizeName(name string) (string, int) {
	name = strings.TrimPrefix(name, "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if procs, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], procs
		}
	}
	return name, 1
}

// parseBench reads `go test -bench -benchmem` output and keeps, per
// benchmark, the minimum of each metric across repeated -count lines.
func parseBench(r io.Reader) (Suite, error) {
	suite := Suite{Host: &Host{}, Benchmarks: map[string]Sample{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			suite.Host.CPU = cpu
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// BenchmarkName-8  N  <ns> ns/op  <B> B/op  <allocs> allocs/op
		if len(fields) < 4 {
			continue
		}
		s := Sample{Samples: 1, NsPerOp: -1, BytesPerOp: -1, AllocsPerOp: -1}
		for i := 2; i+1 < len(fields); i++ {
			val := fields[i]
			switch fields[i+1] {
			case "ns/op":
				f, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return Suite{}, fmt.Errorf("bad ns/op in %q: %w", line, err)
				}
				s.NsPerOp = f
			case "B/op":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return Suite{}, fmt.Errorf("bad B/op in %q: %w", line, err)
				}
				s.BytesPerOp = n
			case "allocs/op":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return Suite{}, fmt.Errorf("bad allocs/op in %q: %w", line, err)
				}
				s.AllocsPerOp = n
			}
		}
		if s.NsPerOp < 0 {
			continue // a Benchmark-prefixed line without measurements
		}
		name, procs := normalizeName(fields[0])
		suite.Host.GOMAXPROCS = max(suite.Host.GOMAXPROCS, procs)
		if prev, ok := suite.Benchmarks[name]; ok {
			s.Samples = prev.Samples + 1
			if prev.NsPerOp < s.NsPerOp {
				s.NsPerOp = prev.NsPerOp
			}
			if prev.BytesPerOp >= 0 && prev.BytesPerOp < s.BytesPerOp {
				s.BytesPerOp = prev.BytesPerOp
			}
			if prev.AllocsPerOp >= 0 && prev.AllocsPerOp < s.AllocsPerOp {
				s.AllocsPerOp = prev.AllocsPerOp
			}
		}
		suite.Benchmarks[name] = s
	}
	if err := sc.Err(); err != nil {
		return Suite{}, err
	}
	if len(suite.Benchmarks) == 0 {
		return Suite{}, fmt.Errorf("no benchmark lines found")
	}
	return suite, nil
}

// compare checks every baseline benchmark against the current run and
// renders a human-readable table; regressions lists the failures.
func compare(base, cur Suite, maxTime, maxAllocs float64) (report string, regressions []string) {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	times := sameBox(base, cur)
	if !times {
		fmt.Fprintf(&b, "baseline measured on %s, this run on %s: ns/op is shown, not gated; allocs/op gates as always\n",
			base.Host, cur.Host)
	}
	fmt.Fprintf(&b, "%-28s %14s %14s %8s   %14s %14s %8s   %12s %12s\n",
		"benchmark", "base ns/op", "cur ns/op", "Δtime", "base allocs", "cur allocs", "Δallocs", "base B/op", "cur B/op")
	for _, name := range names {
		bs := base.Benchmarks[name]
		cs, ok := cur.Benchmarks[name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: missing from current run", name))
			fmt.Fprintf(&b, "%-28s %14.0f %14s\n", name, bs.NsPerOp, "MISSING")
			continue
		}
		dt := ratio(cs.NsPerOp, bs.NsPerOp)
		da := ratio(float64(cs.AllocsPerOp), float64(bs.AllocsPerOp))
		if bs.Samples > 0 && bs.AllocsPerOp == 0 && cs.AllocsPerOp > 0 {
			// A measured 0 allocs/op is a bound, not a missing
			// measurement: any allocation is a regression.
			da = math.Inf(1)
		}
		mark := ""
		if dt > maxTime && !times {
			mark = "  (time over limit on a different box: not gated)"
		} else if dt > maxTime {
			regressions = append(regressions,
				fmt.Sprintf("%s: ns/op %+.1f%% (limit %+.0f%%)", name, dt*100, maxTime*100))
			mark = "  << TIME REGRESSION"
		}
		if da > maxAllocs {
			regressions = append(regressions,
				fmt.Sprintf("%s: allocs/op %+.1f%% (limit %+.0f%%)", name, da*100, maxAllocs*100))
			mark += "  << ALLOC REGRESSION"
		}
		fmt.Fprintf(&b, "%-28s %14.0f %14.0f %+7.1f%%   %14d %14d %+7.1f%%   %12d %12d%s\n",
			name, bs.NsPerOp, cs.NsPerOp, dt*100, bs.AllocsPerOp, cs.AllocsPerOp, da*100, bs.BytesPerOp, cs.BytesPerOp, mark)
	}
	for _, r := range regressions {
		fmt.Fprintf(&b, "FAIL: %s\n", r)
	}
	return b.String(), regressions
}

// ratio is cur/base - 1, tolerating a zero base (no measurement: any
// current value passes — compare handles a MEASURED zero allocs/op).
func ratio(cur, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return cur/base - 1
}
