package explore

import (
	"context"
	"testing"

	"dlrmperf"
	"dlrmperf/internal/xrand"
)

// BenchmarkExploreWarm is the acceptance benchmark for the sweep fast
// path: one full Sweep of the checked-in demo grid (16 grid points, 8
// unique configs) per iteration against a fully warm engine, so every
// prediction is a result-cache hit. The paper-facing claim of ≥ 100k
// configs/sec over the 16-point grid translates to ns/op ≤ 160000 —
// the ratcheted benchdiff baseline locks it in.
func BenchmarkExploreWarm(b *testing.B) {
	eng := benchEngine(b, 0)
	g := loadGrid(b)
	warmup(b, eng, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(context.Background(), eng, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreCold measures the result-cache-off ablation of the
// sweep — every unique config compiles a plan and walks it, on every
// iteration — over a Zipf-skewed batch axis (a realistic exploration
// has heavy repetition of popular batch sizes). Assets (calibrations,
// overhead DBs, graph structures) are warmed before the timer so only
// per-prediction work is measured.
func BenchmarkExploreCold(b *testing.B) {
	eng := benchEngine(b, -1)
	candidates := []int64{256, 512, 768, 1024, 1536, 2048, 3072, 4096}
	batches := make([]int64, 0, 12)
	for _, idx := range xrand.ZipfStream(xrand.New(7), len(candidates), 1.1, 12) {
		batches = append(batches, candidates[idx])
	}
	g := Grid{
		Scenarios: []string{"dlrm-default", "dlrm-ddp"},
		Devices:   []string{dlrmperf.V100},
		GPUs:      []int{1, 2},
		Batches:   batches,
	}
	warmup(b, eng, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(context.Background(), eng, g); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEngine builds a low-fidelity V100 engine with the given result
// cache size (0 = default, -1 = disabled).
func benchEngine(b *testing.B, cacheSize int) *dlrmperf.Engine {
	b.Helper()
	cfg := dlrmperf.FastCalibConfig(17, 4)
	cfg.Devices = []string{dlrmperf.V100}
	cfg.ResultCacheSize = cacheSize
	eng, err := dlrmperf.NewEngineWith(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// warmup runs one untimed sweep to pay calibrations, plan compilation,
// and (when enabled) result-cache fills before the measured loop.
func warmup(b *testing.B, eng *dlrmperf.Engine, g Grid) {
	b.Helper()
	rep, err := Sweep(context.Background(), eng, g)
	if err != nil {
		b.Fatal(err)
	}
	if rep.Failed != 0 {
		b.Fatalf("warm-up sweep failed %d predictions: %+v", rep.Failed, rep.FailedSamples)
	}
}
