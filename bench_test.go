package dlrmperf

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (Section IV) plus the co-design studies of Section V:
//
//	go test -bench=. -benchmem
//
// Each benchmark drives the corresponding experiment and prints the
// rendered artifact once. Expensive assets (kernel-model calibrations,
// measured runs, overhead databases) are memoized in a shared Suite, so
// the first benchmark to need a device pays for its calibration and the
// rest reuse it. All results are deterministic in the suite seed.

import (
	"fmt"
	"sync"
	"testing"

	"dlrmperf/internal/experiments"
	"dlrmperf/internal/hw"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/microbench"
	"dlrmperf/internal/mlp"
	"dlrmperf/internal/perfmodel"
)

var (
	benchOnce  sync.Once
	benchSuite *experiments.Suite
	printed    sync.Map
)

func suite() *experiments.Suite {
	benchOnce.Do(func() {
		benchSuite = experiments.NewSuite(experiments.Options{Seed: 2022})
	})
	return benchSuite
}

// emit prints an artifact once per process, keeping -bench output tidy
// across b.N iterations.
func emit(key, artifact string) {
	if _, loaded := printed.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", artifact)
	}
}

func BenchmarkFig01Utilization(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig01()
		if err != nil {
			b.Fatal(err)
		}
		emit("fig01", experiments.RenderFig01(rows))
	}
}

func BenchmarkFig05Breakdown(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		res, err := s.Fig05()
		if err != nil {
			b.Fatal(err)
		}
		emit("fig05", experiments.RenderFig05(res))
	}
}

func BenchmarkTable04KernelModels(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		cells, err := s.Table04()
		if err != nil {
			b.Fatal(err)
		}
		emit("table04", experiments.RenderTable04(cells, hw.Names()))
	}
}

func BenchmarkFig07T1Overhead(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig07()
		if err != nil {
			b.Fatal(err)
		}
		emit("fig07", experiments.RenderFig07(rows))
	}
}

func BenchmarkFig08OpOverheads(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig08()
		if err != nil {
			b.Fatal(err)
		}
		emit("fig08", experiments.RenderFig08(rows))
	}
}

func BenchmarkFig09E2E(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig09()
		if err != nil {
			b.Fatal(err)
		}
		emit("fig09", experiments.RenderFig09(rows))
	}
}

func BenchmarkTable05ErrorStats(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig09()
		if err != nil {
			b.Fatal(err)
		}
		emit("table05", experiments.RenderTable05(experiments.Table05(rows)))
	}
}

func BenchmarkFig10CNNComparison(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		emit("fig10", experiments.RenderFig10(rows))
	}
}

func BenchmarkFig11OpFusion(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		emit("fig11", experiments.RenderFig11(rows))
	}
}

func BenchmarkShardingLoadBalance(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		schemes, err := s.Sharding(4)
		if err != nil {
			b.Fatal(err)
		}
		emit("sharding", experiments.RenderSharding(schemes))
	}
}

func BenchmarkAblationOverheadPolicy(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		rows, err := s.AblationOverheadPolicy()
		if err != nil {
			b.Fatal(err)
		}
		emit("ablation", experiments.RenderAblation(rows))
	}
}

// benchCalibOptions sizes calibration for benchmarking: quarter sweeps
// and a small ensemble, so serial-vs-parallel wall-clock is measurable
// without dominating the suite.
func benchCalibOptions() perfmodel.CalibOptions {
	sizes := map[kernels.Kind]int{}
	for k, n := range microbench.DefaultSweepSizes() {
		sizes[k] = n / 4
	}
	return perfmodel.CalibOptions{
		Seed: 2022, SweepSizes: sizes, Ensemble: 2, IncludeCNN: true,
		MLPConfig: mlp.Config{HiddenLayers: 2, Width: 48, Optimizer: mlp.Adam, LR: 3e-3, Epochs: 45, BatchSize: 64},
	}
}

// BenchmarkCalibrateSerial and BenchmarkCalibrateParallel track the
// perf trajectory of the concurrent calibration engine: the parallel
// path fans the per-kernel-family jobs (and ensemble members) out over
// GOMAXPROCS workers and must produce bit-identical models, so the
// ratio of these two numbers is the engine's wall-clock speedup.
func BenchmarkCalibrateSerial(b *testing.B) {
	p, err := hw.ByName(hw.V100)
	if err != nil {
		b.Fatal(err)
	}
	opt := benchCalibOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perfmodel.Calibrate(p.GPU, opt)
	}
}

func BenchmarkCalibrateParallel(b *testing.B) {
	p, err := hw.ByName(hw.V100)
	if err != nil {
		b.Fatal(err)
	}
	opt := benchCalibOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perfmodel.CalibrateParallel(p.GPU, opt, 0)
	}
}

// BenchmarkPredictSingleCached is the per-request floor of the warm
// serve path: one facade Predict whose result is already resident, so
// an iteration is a pooled key build, one store lookup, and an in-place
// result fill — no graph reconstruction, no sharding plan re-run.
func BenchmarkPredictSingleCached(b *testing.B) {
	eng, err := NewEngineWith(fastEngineConfig(V100))
	if err != nil {
		b.Fatal(err)
	}
	req := PredictRequest{Workload: DLRMDefault, Batch: 512, Device: V100}
	if res := eng.Predict(req); res.Err != nil { // warm assets and the result cache
		b.Fatal(res.Err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := eng.Predict(req); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkPredictNovelBatch is the miss path a design-space sweep
// lives on: the engine is warm — device calibrated, overhead database
// collected, the family's graph structure resident — and every
// iteration asks for a batch size no earlier one did. Each iteration
// therefore binds the batch to the shared structure, compiles a plan
// and walks Algorithm 1; none builds a node or an op. The 4-GPU case
// shards DLRM_default's uniform tables into four identical shards. Its
// allocs/op is the miss path's bound in CI.
func BenchmarkPredictNovelBatch(b *testing.B) {
	for _, gpus := range []int{1, 4} {
		eng, err := NewEngineWith(fastEngineConfig(V100))
		if err != nil {
			b.Fatal(err)
		}
		// The benchmark function reruns with a growing b.N on the same
		// engine; the batch counter lives outside it so no run repeats
		// a batch an earlier run left in the result cache.
		req := PredictRequest{Workload: DLRMDefault, Batch: 4096, Device: V100, GPUs: gpus}
		b.Run(fmt.Sprintf("gpus=%d", gpus), func(b *testing.B) {
			if res := eng.Predict(req); res.Err != nil { // warm assets and the structure
				b.Fatal(res.Err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req.Batch += 4
				if res := eng.Predict(req); res.Err != nil || res.CacheHit {
					b.Fatalf("batch %d: err %v, cache hit %v", req.Batch, res.Err, res.CacheHit)
				}
			}
		})
	}
}

// BenchmarkPredictOnce measures the cost of a single Algorithm 1
// prediction over DLRM_default's graph — the paper notes a full E2E
// prediction completes in seconds; here it is microseconds because the
// graph is already captured and the models calibrated.
func BenchmarkPredictOnce(b *testing.B) {
	s := suite()
	db, err := s.OverheadDB(hw.V100, "DLRM_default")
	if err != nil {
		b.Fatal(err)
	}
	pred, err := s.Predictor(hw.V100, db)
	if err != nil {
		b.Fatal(err)
	}
	w, err := NewModel(DLRMDefault, 2048)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pred.Predict(w.model.Graph); err != nil {
			b.Fatal(err)
		}
	}
}
