package serve

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"dlrmperf"
	"dlrmperf/internal/explore"
	"dlrmperf/internal/xrand"
)

// BenchmarkSweepWarm is the acceptance benchmark for a warm sweep: one
// RunExplore of the checked-in demo grid (16 grid points, 8 unique
// configs) per iteration through the admission pipeline, no sockets,
// against a fully warm engine, so every prediction is a result-cache
// hit. The paper-facing claim of ≥ 100k configs/sec over the 16-point
// grid translates to ns/op ≤ 160000 — the ratcheted benchdiff baseline
// locks it in.
func BenchmarkSweepWarm(b *testing.B) {
	data, err := os.ReadFile("../explore/testdata/grid.json")
	if err != nil {
		b.Fatal(err)
	}
	var g explore.Grid
	if err := json.Unmarshal(data, &g); err != nil {
		b.Fatal(err)
	}
	benchmarkSweep(b, 0, g)
}

// BenchmarkSweepCold measures the result-cache-off ablation of a sweep
// — every unique config compiles a plan and walks it, on every
// iteration — over a Zipf-skewed batch axis (a realistic exploration
// has heavy repetition of popular batch sizes). Assets (calibrations,
// overhead DBs, graph structures) are warmed before the timer so only
// per-prediction work is measured.
func BenchmarkSweepCold(b *testing.B) {
	candidates := []int64{256, 512, 768, 1024, 1536, 2048, 3072, 4096}
	batches := make([]int64, 0, 12)
	for _, idx := range xrand.ZipfStream(xrand.New(7), len(candidates), 1.1, 12) {
		batches = append(batches, candidates[idx])
	}
	benchmarkSweep(b, -1, explore.Grid{
		Scenarios: []string{"dlrm-default", "dlrm-ddp"},
		Devices:   []string{dlrmperf.V100},
		GPUs:      []int{1, 2},
		Batches:   batches,
	})
}

// benchmarkSweep times RunExplore of g on a server over a low-fidelity
// V100 engine with the given result cache size (0 = default,
// -1 = disabled), after one untimed sweep has paid calibrations, plan
// compilation and (when enabled) result-cache fills.
func benchmarkSweep(b *testing.B, cacheSize int, g explore.Grid) {
	cfg := dlrmperf.FastCalibConfig(17, 4)
	cfg.Devices = []string{dlrmperf.V100}
	cfg.ResultCacheSize = cacheSize
	eng, err := dlrmperf.NewEngineWith(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{Backend: eng})
	defer s.Drain()
	rep, err := s.RunExplore(context.Background(), g)
	if err != nil {
		b.Fatal(err)
	}
	if rep.Failed != 0 {
		b.Fatalf("warm-up sweep failed %d predictions: %+v", rep.Failed, rep.FailedSamples)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunExplore(context.Background(), g); err != nil {
			b.Fatal(err)
		}
	}
}
