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
		assetCal = perfmodel.Calibrate(hw.V100Platform().GPU, 3, perfmodel.CalibOptions{
			SweepSizes: sizes, Ensemble: 2,
			MLPConfig: mlp.Config{HiddenLayers: 2, Width: 48, Optimizer: mlp.Adam, LR: 3e-3, Epochs: 45, BatchSize: 64},
		}, 1)
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
	pr, err := pred.Predict(m.Graph)
	if err != nil {
		t.Fatal(err)
	}
	rel := stats.RelErr(pr.Active, meas.MeanIterTime)
	// Fig 9: kernel-only errors around -50% at B=512.
	if rel > -0.3 {
		t.Errorf("kernel-only error at B=512 = %+.1f%%, expected strong underestimation", 100*rel)
	}
	if stats.AbsRelErr(pr.E2E, meas.MeanIterTime) >= stats.AbsRelErr(pr.Active, meas.MeanIterTime) {
		t.Error("Algorithm 1 should beat kernel-only at low utilization")
	}
}

func TestKernelOnlyGapShrinksWithBatch(t *testing.T) {
	predS, mS, measS := assets(t, models.NameDLRMDefault, 512)
	prS, _ := predS.Predict(mS.Graph)
	predL, mL, measL := assets(t, models.NameDLRMDefault, 4096)
	prL, _ := predL.Predict(mL.Graph)
	gapS := -stats.RelErr(prS.Active, measS.MeanIterTime)
	gapL := -stats.RelErr(prL.Active, measL.MeanIterTime)
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

// kernelOnly is the kernel-only baseline computed apart from the walk:
// the summed predicted times of the kernels g launches, and their count.
func kernelOnly(t *testing.T, reg *perfmodel.Registry, g *graph.Graph) (us float64, n int) {
	t.Helper()
	for _, node := range g.Nodes {
		sum := 0.0
		for _, k := range g.NodeKernels(&node) {
			tk, err := reg.Predict(&k)
			if err != nil {
				t.Fatal(err)
			}
			sum += tk
			n++
		}
		us += sum
	}
	return us, n
}

// TestActiveEqualsKernelOnly checks, on every family, that the walk's
// GPU active time is the kernel-only sum, that it reads no overhead
// database (an empty one gives a bit-equal Active), and that its E2E
// time is never below the device's or the host's total. Accuracy is not
// at stake, so a small calibration that covers the CNN kernels serves.
func TestActiveEqualsKernelOnly(t *testing.T) {
	sizes := map[kernels.Kind]int{}
	for k := range microbench.DefaultSweepSizes() {
		sizes[k] = 100
	}
	p := hw.V100Platform()
	cal := perfmodel.Calibrate(p.GPU, 5, perfmodel.CalibOptions{
		SweepSizes: sizes, Ensemble: 1,
		MLPConfig: mlp.Config{HiddenLayers: 1, Width: 16, Optimizer: mlp.Adam, LR: 3e-3, Epochs: 5, BatchSize: 32},
	}, 1)
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
		ko, _ := kernelOnly(t, cal.Registry, m.Graph)
		if ko != pr.Active {
			t.Errorf("%s: kernel-only sum %v != active %v", tc.name, ko, pr.Active)
		}
		empty, err := New(cal.Registry, &overhead.DB{}).Predict(m.Graph)
		if err != nil {
			t.Fatal(err)
		}
		if empty.Active != pr.Active || empty.E2E == pr.E2E {
			t.Errorf("%s: an empty overhead database gives active %v, E2E %v; the collected one %v, %v",
				tc.name, empty.Active, empty.E2E, pr.Active, pr.E2E)
		}
		if pr.E2E < pr.Active || pr.E2E < pr.CPUTime {
			t.Errorf("%s: E2E %v below max(active %v, CPU time %v)", tc.name, pr.E2E, pr.Active, pr.CPUTime)
		}
	}
}

// walkAllocSlack bounds what one walk allocates, whatever the graph.
// Its buffers are pooled and a kernel is a value in them, so neither an
// op nor a launch costs anything: DLRM_default at batch 1500 (63 nodes,
// 90 kernels), resnet50 and the Transformer each walk with 0
// allocations. A pool miss (a walk on a fresh P) costs a few, which the
// average over the runs rounds away.
const walkAllocSlack = 0

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// TestWalkAllocatesPerWalk bounds one Algorithm-1 walk over a view
// bound to a stored (unbound) structure by a constant: no op costs a
// fresh slice, no kernel a boxed value or a fresh feature vector. The
// cases span the largest structure (inception_v3, 804 nodes) and one
// shard of a four-device DLRM_MLPerf: every fourth of its tables.
func TestWalkAllocatesPerWalk(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	cal := calibration(t)
	shard := models.DLRMMLPerfConfig(256)
	for i := 0; i < len(shard.EmbRows); i += 4 {
		shard.EmbRows[i/4] = shard.EmbRows[i]
	}
	shard.EmbRows = shard.EmbRows[:(len(shard.EmbRows)+3)/4]
	for _, tc := range []struct {
		name        string
		batch, view int64
		shard       *models.DLRMConfig
	}{
		{models.NameDLRMDefault, 1024, 1500, nil},
		{models.NameResNet50, 32, 48, nil},
		{models.NameInceptionV3, 16, 24, nil},
		{models.NameTransformer, 32, 48, nil},
		{models.NameDLRMMLPerf + " shard", 256, 384, &shard},
	} {
		var m *models.Model
		var err error
		if tc.shard != nil {
			m, err = models.BuildDLRM(*tc.shard)
		} else {
			m, err = models.Build(tc.name, tc.batch)
		}
		if err != nil {
			t.Fatal(err)
		}
		db := profiledDB(t, m.Graph, sim.Config{Platform: hw.V100Platform(), Seed: 11, Warmup: 1, Iters: 2, Profile: true, Workload: m.Name})
		pred := New(cal.Registry, db)
		m.Graph.Unbind()
		v, err := m.Graph.WithBatch(tc.view)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := pred.Predict(v); err != nil {
				t.Fatal(err)
			}
		})
		_, launches := kernelOnly(t, cal.Registry, v)
		t.Logf("%s: %d nodes, %d kernels: %.0f allocs per walk", tc.name, len(v.Nodes), launches, allocs)
		if allocs > walkAllocSlack {
			t.Errorf("%s: walk allocates %.0f times, want <= %d", tc.name, allocs, walkAllocSlack)
		}
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
