package predict

import (
	"sync"
	"testing"

	"dlrmperf/internal/graph"
	"dlrmperf/internal/hw"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/microbench"
	"dlrmperf/internal/mlp"
	"dlrmperf/internal/models"
	"dlrmperf/internal/overhead"
	"dlrmperf/internal/perfmodel"
	"dlrmperf/internal/sim"
	"dlrmperf/internal/stats"
)

var (
	assetOnce sync.Once
	assetCal  *perfmodel.Calibration
)

// calibration returns a fast shared V100 calibration.
func calibration(t *testing.T) *perfmodel.Calibration {
	t.Helper()
	assetOnce.Do(func() {
		sizes := map[kernels.Kind]int{}
		for k, n := range microbench.DefaultSweepSizes() {
			sizes[k] = n / 4
			// The tril surface needs denser sampling after the backward
			// scatter penalty steepened it; the kernels are cheap.
			if k == kernels.KindTrilFwd || k == kernels.KindTrilBwd {
				sizes[k] = n
			}
		}
		assetCal = perfmodel.Calibrate(hw.V100Platform().GPU, perfmodel.CalibOptions{
			Seed: 3, SweepSizes: sizes, Ensemble: 2,
			MLPConfig: mlp.Config{HiddenLayers: 2, Width: 48, Optimizer: mlp.Adam, LR: 3e-3, Epochs: 45, BatchSize: 64},
		})
	})
	return assetCal
}

// assets builds (predictor, model, measured run) for a DLRM config.
func assets(t *testing.T, name string, batch int64) (*Predictor, *models.Model, *sim.Result) {
	t.Helper()
	cal := calibration(t)
	m, err := models.Build(name, batch)
	if err != nil {
		t.Fatal(err)
	}
	p := hw.V100Platform()
	db := profiledDB(t, m.Graph, sim.Config{Platform: p, Seed: 11, Warmup: 3, Iters: 25, Profile: true, Workload: name})
	meas := sim.Run(m.Graph, sim.Config{Platform: p, Seed: 12, Warmup: 3, Iters: 25, Workload: name})
	return New(cal.Registry, db), m, meas
}

// profiledDB is the overhead database of one profiled run of g.
func profiledDB(t *testing.T, g *graph.Graph, cfg sim.Config) *overhead.DB {
	t.Helper()
	c := overhead.NewCollector()
	db, err := c.Pool(1, 1, func(int) (*overhead.Samples, error) { return c.Profile(g, cfg), nil })
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestE2EPredictionAccuracy(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch int64
	}{
		{models.NameDLRMDefault, 512},
		{models.NameDLRMDefault, 2048},
		{models.NameDLRMMLPerf, 1024},
		{models.NameDLRMDDP, 2048},
	} {
		pred, m, meas := assets(t, tc.name, tc.batch)
		pr, err := pred.Predict(m.Graph)
		if err != nil {
			t.Fatal(err)
		}
		e2eErr := stats.AbsRelErr(pr.E2E, meas.MeanIterTime)
		activeErr := stats.AbsRelErr(pr.Active, meas.MeanActiveTime)
		// Paper: E2E geomean 7.96%, max ~25%; active geomean 4.61%.
		if e2eErr > 0.25 {
			t.Errorf("%s B=%d: E2E error %.1f%% too high", tc.name, tc.batch, 100*e2eErr)
		}
		if activeErr > 0.15 {
			t.Errorf("%s B=%d: active error %.1f%% too high", tc.name, tc.batch, 100*activeErr)
		}
	}
}

func TestKernelOnlyUnderestimatesAtLowBatch(t *testing.T) {
	pred, m, meas := assets(t, models.NameDLRMDefault, 512)
	ko, err := pred.KernelOnly(m.Graph)
	if err != nil {
		t.Fatal(err)
	}
	rel := stats.RelErr(ko, meas.MeanIterTime)
	// Fig 9: kernel-only errors around -50% at B=512.
	if rel > -0.3 {
		t.Errorf("kernel-only error at B=512 = %+.1f%%, expected strong underestimation", 100*rel)
	}
	pr, err := pred.Predict(m.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if stats.AbsRelErr(pr.E2E, meas.MeanIterTime) >= stats.AbsRelErr(ko, meas.MeanIterTime) {
		t.Error("Algorithm 1 should beat kernel-only at low utilization")
	}
}

func TestKernelOnlyGapShrinksWithBatch(t *testing.T) {
	predS, mS, measS := assets(t, models.NameDLRMDefault, 512)
	koS, _ := predS.KernelOnly(mS.Graph)
	predL, mL, measL := assets(t, models.NameDLRMDefault, 4096)
	koL, _ := predL.KernelOnly(mL.Graph)
	gapS := -stats.RelErr(koS, measS.MeanIterTime)
	gapL := -stats.RelErr(koL, measL.MeanIterTime)
	if gapL >= gapS {
		t.Errorf("kernel-only gap did not shrink with batch: %.1f%% -> %.1f%%", 100*gapS, 100*gapL)
	}
}

func TestPredictionIsSystematicallyLowAtSmallBatch(t *testing.T) {
	// The paper observes E2E underestimation from trimmed long-tail
	// overheads; it is most visible when the host dominates.
	under := 0
	for _, name := range models.DLRMNames() {
		pred, m, meas := assets(t, name, 512)
		pr, err := pred.Predict(m.Graph)
		if err != nil {
			t.Fatal(err)
		}
		if pr.E2E < meas.MeanIterTime {
			under++
		}
	}
	if under < 2 {
		t.Errorf("only %d/3 workloads underestimated at B=512", under)
	}
}

// TestActiveEqualsKernelOnly checks, on every family, that the walk's
// GPU active time is the kernel-only sum, and that its E2E time is never
// below the device's or the host's total. Accuracy is not at stake, so a
// small calibration that covers the CNN kernels serves.
func TestActiveEqualsKernelOnly(t *testing.T) {
	sizes := map[kernels.Kind]int{}
	for k := range microbench.DefaultSweepSizes() {
		sizes[k] = 100
	}
	p := hw.V100Platform()
	cal := perfmodel.Calibrate(p.GPU, perfmodel.CalibOptions{
		Seed: 5, SweepSizes: sizes, Ensemble: 1, IncludeCNN: true,
		MLPConfig: mlp.Config{HiddenLayers: 1, Width: 16, Optimizer: mlp.Adam, LR: 3e-3, Epochs: 5, BatchSize: 32},
	})
	for _, tc := range []struct {
		name  string
		batch int64
	}{
		{models.NameDLRMDefault, 1024},
		{models.NameDLRMMLPerf, 1024},
		{models.NameDLRMDDP, 1024},
		{models.NameResNet50, 32},
		{models.NameInceptionV3, 32},
		{models.NameTransformer, 32},
	} {
		m, err := models.Build(tc.name, tc.batch)
		if err != nil {
			t.Fatal(err)
		}
		pred := New(cal.Registry, profiledDB(t, m.Graph, sim.Config{Platform: p, Seed: 13, Warmup: 1, Iters: 3, Profile: true, Workload: tc.name}))
		pr, err := pred.Predict(m.Graph)
		if err != nil {
			t.Fatal(err)
		}
		ko, err := pred.KernelOnly(m.Graph)
		if err != nil {
			t.Fatal(err)
		}
		if diff := ko - pr.Active; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("%s: kernel-only sum %v != active %v", tc.name, ko, pr.Active)
		}
		if pr.E2E < pr.Active || pr.E2E < pr.CPUTime {
			t.Errorf("%s: E2E %v below max(active %v, CPU time %v)", tc.name, pr.E2E, pr.Active, pr.CPUTime)
		}
	}
}

// walkAllocSlack bounds what a walk allocates beyond one boxed kernel
// per launch: the growth of its input-metadata and kernel buffers. On
// DLRM_default at batch 1500 (63 nodes, 90 kernels) a walk allocates
// 101 times, 11 beyond its kernels.
const walkAllocSlack = 16

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// TestWalkAllocatesPerKernelNotPerOp bounds one Algorithm-1 walk over a
// bound view by the kernels it launches plus a constant: no op costs a
// fresh slice, no kernel a fresh feature vector.
func TestWalkAllocatesPerKernelNotPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	pred, m, _ := assets(t, models.NameDLRMDefault, 1024)
	v, err := m.Graph.WithBatch(1500)
	if err != nil {
		t.Fatal(err)
	}
	launches := v.TotalKernels()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := pred.Predict(v); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d nodes, %d kernels: %.0f allocs per walk", len(v.Nodes), launches, allocs)
	if allocs > float64(launches+walkAllocSlack) {
		t.Errorf("walk allocates %.0f times, want <= %d kernels + %d", allocs, launches, walkAllocSlack)
	}
}

func TestUseMeasuredT4ChangesPrediction(t *testing.T) {
	pred, m, _ := assets(t, models.NameDLRMDefault, 512)
	a, err := pred.Predict(m.Graph)
	if err != nil {
		t.Fatal(err)
	}
	pred.UseMeasuredT4 = true
	b, err := pred.Predict(m.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if a.E2E == b.E2E {
		t.Error("measured-T4 variant should differ from the 10µs constant")
	}
}

func TestFusionWhatIfPredictsSpeedup(t *testing.T) {
	cal := calibration(t)
	cfg := models.DLRMDefaultConfig(512)
	cfg.FusedEmbedding = false
	unfused, err := models.BuildDLRM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := hw.V100Platform()
	pred := New(cal.Registry, profiledDB(t, unfused.Graph, sim.Config{Platform: p, Seed: 31, Warmup: 3, Iters: 25, Profile: true, Workload: unfused.Name}))

	before, err := pred.Predict(unfused.Graph)
	if err != nil {
		t.Fatal(err)
	}
	fusedModel := unfused.Clone()
	if err := models.FuseEmbeddingBags(fusedModel); err != nil {
		t.Fatal(err)
	}
	after, err := pred.Predict(fusedModel.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if after.E2E >= before.E2E {
		t.Errorf("fusion predicted no speedup: %v >= %v", after.E2E, before.E2E)
	}
}
