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
	benchmarkSweep(b, g, nil)
}

// BenchmarkSweepNovel measures a sweep of configurations the engine
// has never seen, with the result cache on: every unique config
// compiles a plan, walks it and is stored (evicting once the results
// class is full), on every iteration. The grid is a Zipf-skewed batch
// axis (a realistic exploration has heavy repetition of popular batch
// sizes), shifted each timed iteration past every batch an earlier one
// used; a unit served from the cache fails the benchmark. Assets
// (calibrations, overhead DBs, graph structures) are warmed before the
// timer so only per-prediction work is measured.
func BenchmarkSweepNovel(b *testing.B) {
	candidates := []int64{256, 512, 768, 1024, 1536, 2048, 3072, 4096}
	batches := make([]int64, 0, 12)
	for _, idx := range xrand.ZipfStream(xrand.New(7), len(candidates), 1.1, 12) {
		batches = append(batches, candidates[idx])
	}
	g := explore.Grid{
		Scenarios: []string{"dlrm-default", "dlrm-ddp"},
		Devices:   []string{dlrmperf.V100},
		GPUs:      []int{1, 2},
		Batches:   make([]int64, len(batches)),
	}
	// Shift k moves every batch up by k*4096, so the ranges
	// [256+k*4096, 4096+k*4096] of two shifts never overlap. The
	// warm-up (i = -1) sweeps shift 0 and timed iteration i shift i+1.
	shift := func(k int) {
		for j, v := range batches {
			g.Batches[j] = v + int64(k)*4096
		}
	}
	shift(0)
	benchmarkSweep(b, g, func(i int, rep *explore.Report) {
		if rep.CacheHits != 0 {
			b.Fatalf("iteration %d: %d of %d units hit the cache", i, rep.CacheHits, rep.Unique)
		}
		shift(i + 2)
	})
}

// benchmarkSweep times RunExplore of g on a server over a low-fidelity
// V100 engine, after one untimed sweep has paid calibrations, plan
// compilation and result-cache fills. check, when set, sees each
// sweep's report after it returns (the warm-up's as iteration -1) and
// may rewrite g's axis slices, which this copy of g shares, for the
// next one.
func benchmarkSweep(b *testing.B, g explore.Grid, check func(i int, rep *explore.Report)) {
	cfg := dlrmperf.FastCalibConfig(17, 4)
	cfg.Devices = []string{dlrmperf.V100}
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
	if check != nil {
		check(-1, rep)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := s.RunExplore(context.Background(), g)
		if err != nil {
			b.Fatal(err)
		}
		if check != nil {
			check(i, rep)
		}
	}
}
