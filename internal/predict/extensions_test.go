package predict

import (
	"testing"

	"dlrmperf/internal/models"
)

func TestEstimateMemoryComponents(t *testing.T) {
	m, err := models.Build(models.NameDLRMDefault, 2048)
	if err != nil {
		t.Fatal(err)
	}
	est := EstimateMemory(m.Graph, m.Params, "sgd")
	if est.Parameters != m.Params*4 {
		t.Errorf("params bytes = %d", est.Parameters)
	}
	if est.Gradients != est.Parameters {
		t.Error("gradient bytes should mirror parameters")
	}
	if est.OptimizerState != 0 {
		t.Error("SGD has no optimizer state")
	}
	// 8 tables x 1M rows x 64 floats.
	wantEmb := int64(8) * 1_000_000 * 64 * 4
	if est.EmbeddingTables != wantEmb {
		t.Errorf("embedding bytes = %d, want %d", est.EmbeddingTables, wantEmb)
	}
	if est.Activations <= 0 || est.Total <= est.EmbeddingTables {
		t.Errorf("estimate incomplete: %+v", est)
	}
}

func TestEstimateMemoryScalesWithBatch(t *testing.T) {
	m, err := models.Build(models.NameDLRMDDP, 512)
	if err != nil {
		t.Fatal(err)
	}
	small := EstimateMemory(m.Graph, m.Params, "adam")
	if err := m.ResizeBatch(4096); err != nil {
		t.Fatal(err)
	}
	big := EstimateMemory(m.Graph, m.Params, "adam")
	// Activations scale ~linearly with batch; weights don't.
	if big.Activations < small.Activations*6 {
		t.Errorf("activations did not scale: %d -> %d", small.Activations, big.Activations)
	}
	if big.Parameters != small.Parameters || big.EmbeddingTables != small.EmbeddingTables {
		t.Error("weight memory should not depend on batch")
	}
	if big.OptimizerState != 2*big.Parameters {
		t.Error("adam state should be 2x parameters")
	}
}

func TestFitsInMemory(t *testing.T) {
	est := MemoryEstimate{Total: 10 << 30}
	if est.FitsInMemory(16<<30, 0.1) != true {
		t.Error("10GB should fit a 16GB device with 10% headroom")
	}
	if est.FitsInMemory(10<<30, 0.1) != false {
		t.Error("10GB must not fit 9GB usable")
	}
}

func TestCommModelScaling(t *testing.T) {
	c := NVLinkCommModel()
	if c.AllReduce(1<<20, 1) != 0 || c.AllToAll(1<<20, 1) != 0 {
		t.Error("single device needs no communication")
	}
	// The ring all-reduce factor 2(n-1)/n grows with n and saturates at 2.
	t2 := c.AllReduce(100<<20, 2)
	t8 := c.AllReduce(100<<20, 8)
	if t8 <= t2 {
		t.Error("all-reduce should cost more across more devices")
	}
	if t8 > 2*t2 {
		t.Error("ring all-reduce saturates below 2x the 2-device cost")
	}
	// All-to-all of the same bytes is cheaper than all-reduce.
	if c.AllToAll(100<<20, 8) >= t8 {
		t.Error("all-to-all factor should be below all-reduce's")
	}
}

func TestPredictDataParallel(t *testing.T) {
	pred, m, _ := assets(t, models.NameDLRMDefault, 2048)
	embActBytes := int64(2048) * 8 * 64 * 4 // B*T*D*4

	single, err := pred.PredictDataParallel(m.Graph, 1, m.Params, embActBytes, NVLinkCommModel())
	if err != nil {
		t.Fatal(err)
	}
	if single.AllReduceUs != 0 || single.ScalingEfficiency != 1 {
		t.Errorf("single-device prediction has comm: %+v", single)
	}

	multi, err := pred.PredictDataParallel(m.Graph, 8, m.Params, embActBytes, NVLinkCommModel())
	if err != nil {
		t.Fatal(err)
	}
	if multi.E2E <= single.E2E {
		t.Error("8-device step must pay communication on top of compute")
	}
	if multi.ScalingEfficiency >= 1 || multi.ScalingEfficiency < 0.3 {
		t.Errorf("scaling efficiency = %v, implausible", multi.ScalingEfficiency)
	}
	// Slower interconnect, lower efficiency.
	pcie, err := pred.PredictDataParallel(m.Graph, 8, m.Params, embActBytes, PCIeCommModel())
	if err != nil {
		t.Fatal(err)
	}
	if pcie.ScalingEfficiency >= multi.ScalingEfficiency {
		t.Error("PCIe should scale worse than NVLink")
	}
	if _, err := pred.PredictDataParallel(m.Graph, 0, m.Params, embActBytes, NVLinkCommModel()); err == nil {
		t.Error("zero devices accepted")
	}
}
