package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"dlrmperf/internal/serve"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkEmitted holds one emitted metric set to BENCHMARK.json: every
// named metric is there with its unit and a finite value, and nothing
// is there that the file does not name.
func checkEmitted(t *testing.T, kind string, want map[string]string, got map[string]metric) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s metric %s is in BENCHMARK.json but was not emitted", kind, name)
		case m.Unit != unit || unit == "":
			t.Errorf("%s metric %s: unit %q, BENCHMARK.json says %q", kind, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s metric %s is not finite: %v", kind, name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s metric %s was emitted but BENCHMARK.json does not name it", kind, name)
		}
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, nameRE)
		}
	}
}

// TestSmoke runs every workload of BENCHMARK.json for a few hundred
// milliseconds, traced, and holds what it emits to the file. Every
// answer check and accounting identity must pass.
func TestSmoke(t *testing.T) {
	spec, err := readBenchmarkSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %v", len(spec.Workloads), workloadNames)
	}
	cfg := runConfig{seed: defaultSeed, window: 300 * time.Millisecond, traced: true, setupReps: 1, outDir: t.TempDir()}
	fid, err := measureFidelity()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(context.Background(), w.Name, cfg, fid)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Samples < 1 {
				t.Errorf("correct %v, attempted %d, failed %d, samples %d: %v", res.Correct, res.Attempted, res.Failed, res.Samples, res.Failures)
			}
			checkEmitted(t, "end-to-end", e2e, res.EndToEnd)
			checkEmitted(t, "per-layer", layers, res.PerLayer)
			for name, m := range res.EndToEnd {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v: it must never be 0", name, m.Value)
				}
			}
			if w.Name != "cold-start" {
				if _, err := os.Stat(cfg.outDir + "/trace-" + w.Name + ".json"); err != nil {
					t.Errorf("no trace file: %v", err)
				}
				if s := res.PerLayer["loadgen.self_rows_sum_share"].Value; s < 0.9 || s > 1.1 {
					t.Errorf("self-time rows sum to %.3f of the traced p50, want within 10%%", s)
				}
			}
		})
	}
}

func TestStreamDigest(t *testing.T) {
	for _, w := range workloadNames {
		a, b, c := streamDigest(w, 7), streamDigest(w, 7), streamDigest(w, 8)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", w, a)
		}
	}
}

// TestNovelStreamIsNovel: no two requests of a run share an identity.
func TestNovelStreamIsNovel(t *testing.T) {
	seen := map[serve.Request]bool{}
	for g := uint64(0); g < 50000; g++ {
		r := novelRequest(3, g)
		if seen[r] {
			t.Fatalf("request %d repeats %+v", g, r)
		}
		seen[r] = true
	}
}

func TestCompareRefusesOtherShape(t *testing.T) {
	spec := &benchmarkSpec{}
	a := &resultFile{Provenance: provenance{GOMAXPROCS: 2}}
	b := &resultFile{Provenance: provenance{GOMAXPROCS: 4}}
	if _, err := compareFiles(spec, a, b); err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Errorf("comparing GOMAXPROCS 2 with 4: err = %v, want a refusal", err)
	}
}

func TestCompareAppliesBounds(t *testing.T) {
	spec := &benchmarkSpec{}
	if err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "ops_per_s", "better": "higher", "bound": 0.1},
		{"name": "latency_p50_us", "better": "lower", "bound": 0.1}]}`), spec); err != nil {
		t.Fatal(err)
	}
	mk := func(ops, p50 float64) *resultFile {
		return &resultFile{Provenance: provenance{GOMAXPROCS: 2}, Workloads: []*workloadResult{{
			Workload: "hot-repeat",
			EndToEnd: map[string]metric{"ops_per_s": {Value: ops}, "latency_p50_us": {Value: p50}},
		}}}
	}
	cs, err := compareFiles(spec, mk(1000, 100), mk(850, 95))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		switch c.Metric {
		case "ops_per_s":
			if c.OK || math.Abs(c.Worse-0.15) > 1e-9 {
				t.Errorf("ops_per_s 1000 -> 850: %+v, want 15%% worse and a regression", c)
			}
		case "latency_p50_us":
			if !c.OK || c.Worse >= 0 {
				t.Errorf("latency_p50_us 100 -> 95: %+v, want better", c)
			}
		}
	}
}

func TestOutIsIgnored(t *testing.T) {
	data, err := os.ReadFile(".gitignore")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains("\n"+string(data), "\nout/\n") {
		t.Errorf("bench/.gitignore does not keep out/ untracked:\n%s", data)
	}
}
