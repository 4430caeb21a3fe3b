package dlrmperf

import (
	"math"
	"sync"
	"testing"

	"dlrmperf/internal/kernels"
	"dlrmperf/internal/microbench"
	"dlrmperf/internal/mlp"
	"dlrmperf/internal/perfmodel"
)

var (
	pipeOnce sync.Once
	pipeV100 *Pipeline
	pipeErr  error
)

// pipeline builds a fast shared V100 pipeline for the facade tests.
func pipeline(t *testing.T) *Pipeline {
	t.Helper()
	pipeOnce.Do(func() {
		sizes := map[kernels.Kind]int{}
		for k, n := range microbench.DefaultSweepSizes() {
			sizes[k] = n / 4
			// The tril surface needs denser sampling after the backward
			// scatter penalty steepened it; the kernels are cheap.
			if k == kernels.KindTrilFwd || k == kernels.KindTrilBwd {
				sizes[k] = n
			}
		}
		pipeV100, pipeErr = NewPipeline(V100, WithSeed(5), WithCalibration(perfmodel.CalibOptions{
			SweepSizes: sizes, Ensemble: 2,
			MLPConfig: mlp.Config{HiddenLayers: 2, Width: 48, Optimizer: mlp.Adam, LR: 3e-3, Epochs: 45, BatchSize: 64},
		}))
	})
	if pipeErr != nil {
		t.Fatal(pipeErr)
	}
	return pipeV100
}

func TestNewPipelineUnknownDevice(t *testing.T) {
	if _, err := NewPipeline("A100"); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestDevicesAndWorkloads(t *testing.T) {
	if len(Devices()) != 3 {
		t.Errorf("Devices = %v", Devices())
	}
	if len(Workloads()) != 6 {
		t.Errorf("Workloads = %v", Workloads())
	}
}

func TestNewModelRejectsNonPositiveBatch(t *testing.T) {
	for _, name := range Workloads() {
		for _, b := range []int64{0, -64} {
			if _, err := NewModel(name, b); err == nil {
				t.Errorf("NewModel(%s, %d) accepted", name, b)
			}
		}
	}
}

func TestQuickstartFlow(t *testing.T) {
	pipe := pipeline(t)
	w, err := NewModel(DLRMDefault, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.model.Graph.Nodes) == 0 {
		t.Fatal("workload has no ops")
	}
	meas := pipe.Measure(w, 1)
	if meas.IterTimeUs <= 0 || meas.Utilization <= 0 || meas.Utilization > 1 {
		t.Fatalf("measurement: %+v", meas)
	}
	db, err := pipe.CollectOverheads(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := pipe.Predict(w, db)
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(pred.E2EUs-meas.IterTimeUs) / meas.IterTimeUs; e > 0.25 {
		t.Errorf("E2E prediction error %.1f%%", 100*e)
	}
	if pred.ActiveUs <= 0 {
		t.Fatalf("kernel-only (active) prediction %v: the workload launches no kernels", pred.ActiveUs)
	}
	if pred.ActiveUs >= pred.E2EUs {
		t.Error("kernel-only must be below the full E2E prediction")
	}
}

func TestResizeWhatIf(t *testing.T) {
	pipe := pipeline(t)
	w, err := NewModel(DLRMDDP, 512)
	if err != nil {
		t.Fatal(err)
	}
	db, err := pipe.CollectOverheads(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	small, err := pipe.Predict(w, db)
	if err != nil {
		t.Fatal(err)
	}
	m, err := w.model.WithBatch(4096)
	if err != nil {
		t.Fatal(err)
	}
	big, err := pipe.Predict(&Workload{model: m}, db)
	if err != nil {
		t.Fatal(err)
	}
	if big.E2EUs <= small.E2EUs {
		t.Errorf("8x batch should predict slower: %v <= %v", big.E2EUs, small.E2EUs)
	}
}

func TestSharedOverheads(t *testing.T) {
	pipe := pipeline(t)
	var ws []*Workload
	for _, name := range []string{DLRMDefault, DLRMDDP} {
		w, err := NewModel(name, 1024)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	shared, err := pipe.SharedOverheads(ws, 6)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := pipe.Predict(ws[0], shared)
	if err != nil {
		t.Fatal(err)
	}
	if pred.E2EUs <= 0 {
		t.Error("shared-overhead prediction not positive")
	}
}

func TestKernelModelErrorsExposed(t *testing.T) {
	pipe := pipeline(t)
	errs := pipe.KernelModelErrors()
	if _, ok := errs["GEMM"]; !ok {
		t.Fatal("missing GEMM row")
	}
	if errs["GEMM"][0] <= 0 || errs["GEMM"][0] > 0.2 {
		t.Errorf("GEMM GMAE = %v", errs["GEMM"][0])
	}
}

// TestPredictMultiGPUFacade: a plain workload request with GPUs > 1 is
// the facade's multi-GPU entry (the paper's §VI extension): the step
// pays the dense all-reduce and the embedding all-to-alls on top of the
// per-device compute, so scaling efficiency falls below 1.
func TestPredictMultiGPUFacade(t *testing.T) {
	eng, err := NewEngineWith(fastEngineConfig(V100))
	if err != nil {
		t.Fatal(err)
	}
	single := eng.Predict(PredictRequest{Workload: DLRMDefault, Batch: 2048, Device: V100})
	multi := eng.Predict(PredictRequest{Workload: DLRMDefault, Batch: 8 * 2048, Device: V100, GPUs: 8})
	if single.Err != nil || multi.Err != nil {
		t.Fatalf("single: %v, multi: %v", single.Err, multi.Err)
	}
	if single.GPUs != 1 || single.ScalingEfficiency != 1 || single.AllReduceUs != 0 {
		t.Errorf("single-GPU surface = %+v", single)
	}
	if multi.GPUs != 8 || multi.AllReduceUs <= 0 || multi.AllToAllUs <= 0 {
		t.Errorf("8-GPU step should pay communication: %+v", multi)
	}
	if se := multi.ScalingEfficiency; se <= 0 || se >= 1 {
		t.Errorf("scaling efficiency = %v, want in (0,1)", se)
	}
}
