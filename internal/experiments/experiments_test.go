package experiments

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"dlrmperf/internal/kernels"
	"dlrmperf/internal/microbench"
	"dlrmperf/internal/mlp"
	"dlrmperf/internal/models"
	"dlrmperf/internal/perfmodel"
)

var (
	suiteOnce sync.Once
	suite     *Suite
)

// fastSuite is a V100-only suite with quarter-size sweeps: representative
// but quick enough for `go test`.
func fastSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		sizes := map[kernels.Kind]int{}
		for k, n := range microbench.DefaultSweepSizes() {
			sizes[k] = n / 4
			// The tril surface needs denser sampling after the backward
			// scatter penalty steepened it; the kernels are cheap.
			if k == kernels.KindTrilFwd || k == kernels.KindTrilBwd {
				sizes[k] = n
			}
		}
		suite = NewSuite(Options{
			Devices:     []string{"V100"},
			DLRMBatches: []int64{512, 2048},
			CNNBatches:  []int64{16},
			Iters:       15,
			Calib: perfmodel.CalibOptions{
				SweepSizes: sizes,
				Ensemble:   2,
				MLPConfig:  mlp.Config{HiddenLayers: 2, Width: 48, Optimizer: mlp.Adam, LR: 3e-3, Epochs: 45, BatchSize: 64},
			},
		})
	})
	return suite
}

func TestFig01Shape(t *testing.T) {
	rows, err := fastSuite(t).Fig01()
	if err != nil {
		t.Fatal(err)
	}
	util := map[string]map[int64]float64{}
	for _, r := range rows {
		if util[r.Model] == nil {
			util[r.Model] = map[int64]float64{}
		}
		util[r.Model][r.Batch] = r.Utilization
		if r.Utilization <= 0 || r.Utilization > 1 {
			t.Errorf("%s B=%d utilization %v out of range", r.Model, r.Batch, r.Utilization)
		}
	}
	// DLRM has substantially lower utilization than the CNNs (Fig 1).
	if util[models.NameDLRMDefault][512] >= util[models.NameResNet50][16] {
		t.Error("DLRM utilization should be below ResNet-50's")
	}
	if util[models.NameResNet50][16] < 0.9 {
		t.Errorf("resnet utilization = %v", util[models.NameResNet50][16])
	}
	if util[models.NameDLRMDefault][512] >= util[models.NameDLRMDefault][2048] {
		t.Error("DLRM utilization should rise with batch size")
	}
	if !strings.Contains(RenderFig01(rows), "DLRM_default") {
		t.Error("render missing model name")
	}
}

func TestFig05Breakdown(t *testing.T) {
	res, err := fastSuite(t).Fig05()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("breakdowns = %d", len(res))
	}
	for _, r := range res {
		ops := map[string]bool{}
		total := 0.0
		for _, e := range r.Entries {
			ops[e.Op] = true
			total += e.Share
		}
		if !ops["Idle"] {
			t.Errorf("%s breakdown missing Idle", r.Model)
		}
		// Shares sum to ~1 (active + idle = iteration).
		if total < 0.95 || total > 1.05 {
			t.Errorf("%s shares sum to %v", r.Model, total)
		}
	}
	// Fig 5: embedding backward dominates DLRM_default and DLRM_DDP.
	for _, idx := range []int{0, 2} {
		found := false
		for i, e := range res[idx].Entries {
			if e.Op == "LookupFunctionBackward" && i < 6 {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: LookupFunctionBackward not among top device-time ops", res[idx].Model)
		}
	}
}

func TestTable04AllRowsPresent(t *testing.T) {
	cells, err := fastSuite(t).Table04()
	if err != nil {
		t.Fatal(err)
	}
	want := len(perfmodel.Table4Rows())
	if len(cells) != want {
		t.Fatalf("cells = %d, want %d (V100 only)", len(cells), want)
	}
	for _, c := range cells {
		if c.Summary.N == 0 {
			t.Errorf("row %s empty", c.Row)
		}
	}
	out := RenderTable04(cells, []string{"V100"})
	if !strings.Contains(out, "EL-FHL") || !strings.Contains(out, "GEMM") {
		t.Error("render missing rows")
	}
}

func TestFig07T1Stability(t *testing.T) {
	rows, err := fastSuite(t).Fig07()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var lo, hi float64 = 1e9, 0
	for _, r := range rows {
		if r.Mean < lo {
			lo = r.Mean
		}
		if r.Mean > hi {
			hi = r.Mean
		}
	}
	// Fig 7: T1 means cluster across models and batch sizes.
	if hi/lo > 1.6 {
		t.Errorf("T1 means spread too wide: [%v, %v]", lo, hi)
	}
}

func TestFig08CoversTypesAndOps(t *testing.T) {
	rows, err := fastSuite(t).Fig08()
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]int{}
	for _, r := range rows {
		types[r.Type]++
		if r.Mean < 0 {
			t.Errorf("negative overhead mean for %s/%s", r.Type, r.Op)
		}
	}
	for _, typ := range []string{"T2", "T3", "T5"} {
		if types[typ] == 0 {
			t.Errorf("no %s rows", typ)
		}
	}
}

func TestFig09AndTable05(t *testing.T) {
	rows, err := fastSuite(t).Fig09()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*2 { // 3 models x 2 batches on V100
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.KernelOnlyErr >= 0 && r.Batch == 512 {
			t.Errorf("%s B=512 kernel-only error %v should be negative", r.Model, r.KernelOnlyErr)
		}
		if abs(r.E2EErr) > 0.3 {
			t.Errorf("%s B=%d E2E error %v too large", r.Model, r.Batch, r.E2EErr)
		}
		if abs(r.ActiveErr) > 0.2 {
			t.Errorf("%s B=%d active error %v too large", r.Model, r.Batch, r.ActiveErr)
		}
	}
	t5 := Table05(rows)
	var activeG, e2eG float64
	for _, row := range t5 {
		if row.Device != "Overall" {
			continue
		}
		switch row.Metric {
		case "Active":
			activeG = row.Geomean
		case "E2E":
			e2eG = row.Geomean
		}
	}
	// Table V: active-time prediction beats E2E prediction.
	if activeG >= e2eG {
		t.Errorf("active geomean %v should be below E2E %v", activeG, e2eG)
	}
	if e2eG > 0.2 {
		t.Errorf("E2E geomean %v too high", e2eG)
	}
}

func TestFig11FusionAgreement(t *testing.T) {
	rows, err := fastSuite(t).Fig11()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.PredictedSpeedup <= 1 {
			t.Errorf("B=%d: no predicted fusion speedup (%v)", r.Batch, r.PredictedSpeedup)
		}
		if r.MeasuredSpeedup <= 1 {
			t.Errorf("B=%d: no measured fusion speedup (%v)", r.Batch, r.MeasuredSpeedup)
		}
		// The prediction tracks the measured speedup within a few points.
		if abs(r.PredictedSpeedup-r.MeasuredSpeedup) > 0.10 {
			t.Errorf("B=%d: predicted %.3f vs measured %.3f speedup", r.Batch, r.PredictedSpeedup, r.MeasuredSpeedup)
		}
	}
}

func TestShardingGreedyWins(t *testing.T) {
	schemes, err := fastSuite(t).Sharding(4)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ShardingScheme{}
	for _, sc := range schemes {
		byName[sc.Name] = sc
		if len(sc.PerDevice) != 4 {
			t.Errorf("%s has %d devices", sc.Name, len(sc.PerDevice))
		}
	}
	greedy := byName["greedy-predicted-LPT"].Makespan
	chunked := byName["chunked-by-size"].Makespan
	if greedy >= chunked {
		t.Errorf("greedy LPT (%v) should beat chunked-by-size (%v)", greedy, chunked)
	}
	// Pinned from the planner-private LPT this scheme used before it
	// moved onto scenario.PlanShardsCost: the loads must not move.
	want := ShardingScheme{
		Name:      "greedy-predicted-LPT",
		PerDevice: []float64{71.04168729324844, 59.06975171854452, 59.18492025338186, 58.898741052933964},
		Makespan:  71.04168729324844,
	}
	if got := byName[want.Name]; got.Makespan != want.Makespan || !slices.Equal(got.PerDevice, want.PerDevice) {
		t.Errorf("greedy LPT = %+v, want %+v", got, want)
	}
}

func TestAblationTrimmedUnderestimates(t *testing.T) {
	rows, err := fastSuite(t).AblationOverheadPolicy()
	if err != nil {
		t.Fatal(err)
	}
	// At B=512 the trimmed variant must sit below the raw-means variant
	// (the paper's underestimation mechanism).
	var trimmedSum, rawSum float64
	var n int
	for _, r := range rows {
		if r.Batch != 512 {
			continue
		}
		switch r.Variant {
		case "trimmed (paper)":
			trimmedSum += r.E2EErr
			n++
		case "raw means":
			rawSum += r.E2EErr
		}
	}
	if n == 0 {
		t.Fatal("no B=512 ablation rows")
	}
	if trimmedSum/float64(n) >= rawSum/float64(n) {
		t.Errorf("trimmed mean error %v should be below raw %v", trimmedSum/float64(n), rawSum/float64(n))
	}
}

func TestSuiteMemoization(t *testing.T) {
	s := fastSuite(t)
	a, err := s.Calibration("V100")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Calibration("V100")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("calibration not memoized")
	}
	r1, err := s.Run("V100", models.NameDLRMDefault, 512)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run("V100", models.NameDLRMDefault, 512)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("runs not memoized")
	}
}

func TestSuiteUnknownDevice(t *testing.T) {
	s := NewSuite(Options{Devices: []string{"H100"}})
	if _, err := s.Calibration("H100"); err == nil {
		t.Fatal("unknown device accepted")
	}
}
