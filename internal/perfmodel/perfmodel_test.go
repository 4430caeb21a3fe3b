package perfmodel

import (
	"reflect"
	"sync"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/microbench"
	"dlrmperf/internal/mlp"
	"dlrmperf/internal/models"
)

// fastOptions keeps test calibrations quick while staying representative.
func fastOptions() CalibOptions {
	sizes := map[kernels.Kind]int{}
	for k, n := range microbench.DefaultSweepSizes() {
		sizes[k] = n / 4
		// The tril surface needs denser sampling after the backward
		// scatter penalty steepened it; the kernels are cheap.
		if k == kernels.KindTrilFwd || k == kernels.KindTrilBwd {
			sizes[k] = n
		}
	}
	return CalibOptions{
		SweepSizes: sizes,
		MLPConfig:  mlp.Config{HiddenLayers: 2, Width: 48, Optimizer: mlp.Adam, LR: 3e-3, Epochs: 45, BatchSize: 64},
		Ensemble:   2,
	}
}

var (
	calOnce sync.Once
	calV100 *Calibration
)

func v100Calibration(t *testing.T) *Calibration {
	t.Helper()
	calOnce.Do(func() {
		calV100 = Calibrate(hw.V100Platform().GPU, 1, fastOptions(), 1)
	})
	return calV100
}

func TestCalibrationCoversTable4Rows(t *testing.T) {
	cal := v100Calibration(t)
	for _, row := range Table4Rows() {
		sm := cal.Eval(row)
		if sm.N == 0 {
			t.Errorf("row %s has no evaluation samples", row)
		}
	}
}

func TestKernelModelAccuracy(t *testing.T) {
	cal := v100Calibration(t)
	// The paper's headline: every adopted kernel model under ~10% GMAE.
	// The fast test calibration uses quarter-size sweeps, so allow modest
	// slack over the full-sweep numbers.
	bounds := map[string]float64{
		"EL-FH": 0.13, "EL-BH": 0.13,
		"concat": 0.12, "memcpy": 0.03,
		"GEMM": 0.14, "transpose": 0.12,
		"tril-F": 0.10, "tril-B": 0.10,
		"elementwise": 0.04,
	}
	for row, bound := range bounds {
		if got := cal.Eval(row).GMAE; got > bound {
			t.Errorf("%s GMAE = %.2f%%, want < %.2f%%", row, 100*got, 100*bound)
		}
	}
}

func TestEnhancedELBeatsPlainOverall(t *testing.T) {
	cal := v100Calibration(t)
	if cal.Eval("EL-FH").GMAE >= cal.Eval("EL-F").GMAE {
		t.Errorf("enhanced EL (%.2f%%) should beat plain (%.2f%%) on all tables",
			100*cal.Eval("EL-FH").GMAE, 100*cal.Eval("EL-F").GMAE)
	}
	// Plain model improves markedly on the large-table subset, where its
	// all-misses assumption holds (Table IV's -L rows).
	if cal.Eval("EL-FL").GMAE >= cal.Eval("EL-F").GMAE {
		t.Errorf("plain EL on large tables (%.2f%%) should beat all tables (%.2f%%)",
			100*cal.Eval("EL-FL").GMAE, 100*cal.Eval("EL-F").GMAE)
	}
}

func TestPlainELOverpredictsSmallTables(t *testing.T) {
	gpu := hw.V100Platform().GPU
	ds := microbench.CollectKind(gpu, kernels.KindEmbeddingFwd, 300, 11)
	plain := CalibrateEL("EL-F", gpu, ds, false)
	dev := kernels.NewDevice(gpu, 5)
	small := kernels.Kernel{Kind: kernels.KindEmbeddingFwd, B: 1024, E: 2000, T: 4, L: 16, D: 64}
	pred := plain.Predict(&small)
	actual := dev.BaseTime(&small)
	if pred < actual*1.3 {
		t.Errorf("plain model should grossly overpredict L2-resident lookups: pred=%v actual=%v", pred, actual)
	}
}

func TestELHitRateProperties(t *testing.T) {
	gpu := hw.V100Platform().GPU
	m := &Model{Form: FormEL, NumSMs: gpu.NumSMs, L2Size: gpu.L2Size, DRAMBW: gpu.DRAMBandwidth, L2BW: gpu.L2Bandwidth, Enhanced: true}
	tiny := kernels.Kernel{Kind: kernels.KindEmbeddingFwd, B: 256, E: 1000, T: 1, L: 4, D: 64}
	huge := kernels.Kernel{Kind: kernels.KindEmbeddingFwd, B: 256, E: 50_000_000, T: 1, L: 4, D: 64}
	pTiny := m.HitRate(&tiny)
	pHuge := m.HitRate(&huge)
	if pTiny < 0.99 {
		t.Errorf("fully cached table hit rate = %v, want ~1", pTiny)
	}
	if pHuge > 0.01 {
		t.Errorf("huge table hit rate = %v, want ~0", pHuge)
	}
	// Hit probability decreases with table size.
	last := 1.1
	for _, e := range []int64{1000, 10_000, 100_000, 1_000_000, 10_000_000} {
		p := m.HitRate(&kernels.Kernel{Kind: kernels.KindEmbeddingFwd, B: 256, E: e, T: 1, L: 4, D: 64})
		if p > last {
			t.Errorf("hit rate not monotone at E=%d: %v > %v", e, p, last)
		}
		last = p
	}
}

func TestELForwardFormulaIncludesL(t *testing.T) {
	// Doubling the pooling factor must roughly double the plain-model
	// forward prediction (the documented paper-typo fix).
	gpu := hw.V100Platform().GPU
	m := &Model{Form: FormEL, NumSMs: gpu.NumSMs, L2Size: gpu.L2Size, DRAMBW: gpu.DRAMBandwidth}
	a := m.Predict(&kernels.Kernel{Kind: kernels.KindEmbeddingFwd, B: 512, E: 1_000_000, T: 8, L: 16, D: 64})
	b := m.Predict(&kernels.Kernel{Kind: kernels.KindEmbeddingFwd, B: 512, E: 1_000_000, T: 8, L: 32, D: 64})
	if b < a*1.7 {
		t.Errorf("doubling L scaled prediction by %vx; weights traffic must include L", b/a)
	}
}

func TestRooflineFitRecoversAffineLaw(t *testing.T) {
	// Synthesize samples from t = 5 + bytes/1000 and check the fit.
	ds := &microbench.Dataset{Kind: kernels.KindConcat}
	for _, b := range []int64{1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26} {
		k := kernels.Kernel{Kind: kernels.KindConcat, NBytes: b / 2, NInputs: 2} // read+write = b
		ds.Samples = append(ds.Samples, microbench.Sample{Kernel: &k, Time: 5 + float64(b)/1000})
	}
	r := CalibrateRoofline("test", ds, 0)
	if r.Lat < 4 || r.Lat > 6 {
		t.Errorf("fitted latency = %v, want ~5", r.Lat)
	}
	if r.BW < 900 || r.BW > 1100 {
		t.Errorf("fitted bandwidth = %v, want ~1000", r.BW)
	}
}

func TestMLPModelResidualForm(t *testing.T) {
	cal := v100Calibration(t)
	m, ok := cal.Registry.Model(kernels.KindGEMM).(*Model)
	if !ok || m.Form != FormMLP {
		t.Fatal("GEMM model is not an MLP model")
	}
	if len(m.Nets) != 2 {
		t.Errorf("ensemble size = %d, want 2", len(m.Nets))
	}
	// Prediction must be positive and finite for extreme shapes.
	for _, g := range []kernels.Kernel{
		{Kind: kernels.KindGEMM, B: 1, M: 1, N: 1, K: 1},
		{Kind: kernels.KindGEMM, B: 1, M: 16384, N: 16384, K: 16384},
	} {
		p := m.Predict(&g)
		if p <= 0 {
			t.Errorf("prediction for %v = %v", g, p)
		}
	}
}

func TestRegistrySharedAcrossOps(t *testing.T) {
	cal := v100Calibration(t)
	// Forward and backward GEMMs must hit the same model instance — the
	// sharing that saves microbenchmark cost (Section III).
	fwd := kernels.Kernel{Kind: kernels.KindGEMM, B: 1, M: 128, N: 64, K: 32}
	bwd := kernels.Kernel{Kind: kernels.KindGEMM, B: 1, M: 64, N: 32, K: 128}
	a, err := cal.Registry.Predict(&fwd)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cal.Registry.Predict(&bwd)
	if err != nil {
		t.Fatal(err)
	}
	if a <= 0 || b <= 0 {
		t.Error("registry predictions must be positive")
	}
	if cal.Registry.Model(fwd.Kind) != cal.Registry.Model(bwd.Kind) {
		t.Error("GEMM model not shared")
	}
}

func TestRegistryUnknownKind(t *testing.T) {
	reg := NewRegistry("V100")
	if _, err := reg.Predict(&kernels.Kernel{Kind: kernels.KindGEMM, B: 1, M: 1, N: 1, K: 1}); err == nil {
		t.Fatal("empty registry should error")
	}
}

// TestRegistryKinds pins the one definition of a complete registry: a
// fresh calibration registers exactly the kinds its plan lists — every
// family the predictor needs, the CNN ones included — so Missing is
// empty for it and names a kind dropped from it.
func TestRegistryKinds(t *testing.T) {
	cal := v100Calibration(t)
	want := map[kernels.Kind]bool{
		kernels.KindGEMM: true, kernels.KindEmbeddingFwd: true,
		kernels.KindEmbeddingBwd: true, kernels.KindConcat: true,
		kernels.KindMemcpyH2D: true, kernels.KindTranspose: true,
		kernels.KindTrilFwd: true, kernels.KindTrilBwd: true,
		kernels.KindElementwise: true, kernels.KindConv: true,
		kernels.KindBatchNorm: true,
	}
	kinds, plan := cal.Registry.Kinds(), calibratedKinds()
	if missing := cal.Registry.Missing(); len(missing) != 0 || len(kinds) != len(want) || len(plan) != len(want) {
		t.Fatalf("calibration covers %v, plan lists %v (missing %v), want %d kinds", kinds, plan, missing, len(want))
	}
	for _, k := range plan {
		if !want[k] {
			t.Errorf("plan registers unexpected kind %s", k)
		}
	}
	hollow := NewRegistry(hw.V100)
	for _, k := range kinds[1:] {
		hollow.Register(k, cal.Registry.Model(k))
	}
	if missing := hollow.Missing(); !reflect.DeepEqual(missing, kinds[:1]) {
		t.Fatalf("registry without %s reports missing %v", kinds[0], missing)
	}
}

// TestKindCoverage pins three lists to one set: the kernel kinds the six
// model families launch, the kinds a calibration registers, and
// kernels.Kinds. A launched kind no plan calibrates fails prediction
// with ErrNoModel; a kind no family launches is dead weight in every
// switch on Kind.
func TestKindCoverage(t *testing.T) {
	launched := map[kernels.Kind]bool{}
	for _, name := range []string{
		models.NameDLRMDefault, models.NameDLRMMLPerf, models.NameDLRMDDP,
		models.NameResNet50, models.NameInceptionV3, models.NameTransformer,
	} {
		m, err := models.Build(name, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range m.Graph.Nodes {
			for _, k := range m.Graph.NodeKernels(&n) {
				launched[k.Kind] = true
			}
		}
	}
	calibrated := map[kernels.Kind]bool{}
	for _, k := range calibratedKinds() {
		calibrated[k] = true
	}
	all := kernels.Kinds()
	for _, k := range all {
		if !launched[k] || !calibrated[k] {
			t.Errorf("kind %s: launched by a family %v, calibrated %v", k, launched[k], calibrated[k])
		}
	}
	if len(launched) != len(all) || len(calibrated) != len(all) {
		t.Errorf("families launch %d kinds and a calibration registers %d, of %d kinds", len(launched), len(calibrated), len(all))
	}
}

func TestCalibrationDeterministic(t *testing.T) {
	opts := fastOptions()
	sizes := map[kernels.Kind]int{}
	for k := range opts.SweepSizes {
		sizes[k] = 60
	}
	opts.SweepSizes = sizes
	opts.MLPConfig.Epochs = 5
	a := Calibrate(hw.V100Platform().GPU, 1, opts, 1)
	b := Calibrate(hw.V100Platform().GPU, 1, opts, 1)
	ka := kernels.Kernel{Kind: kernels.KindGEMM, B: 1, M: 333, N: 222, K: 111}
	pa, _ := a.Registry.Predict(&ka)
	pb, _ := b.Registry.Predict(&ka)
	if pa != pb {
		t.Errorf("same-seed calibrations differ: %v vs %v", pa, pb)
	}
}
