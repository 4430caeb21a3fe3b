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

func TestPerOpBreakdownSumsToActive(t *testing.T) {
	pred, m, _ := assets(t, models.NameDLRMDefault, 1024)
	pr, err := pred.Predict(m.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.PerOp) != len(m.Graph.Nodes) {
		t.Fatalf("per-op rows = %d, nodes = %d", len(pr.PerOp), len(m.Graph.Nodes))
	}
	sum := 0.0
	for _, op := range pr.PerOp {
		sum += op.Kernel
	}
	if diff := sum - pr.Active; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("per-op kernel sum %v != active %v", sum, pr.Active)
	}
	if pr.E2E < pr.Active || pr.E2E < pr.CPUTime {
		t.Error("E2E must be >= max(active-ish GPU time, CPU time)")
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
