package predict

import (
	"testing"

	"dlrmperf/internal/models"
)

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

	single, err := pred.PredictSharded(replicas(m.Graph, 1), m.Params, embActBytes, NVLinkCommModel())
	if err != nil {
		t.Fatal(err)
	}
	if single.AllReduceUs != 0 || single.ScalingEfficiency != 1 {
		t.Errorf("single-device prediction has comm: %+v", single)
	}

	multi, err := pred.PredictSharded(replicas(m.Graph, 8), m.Params, embActBytes, NVLinkCommModel())
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
	pcie, err := pred.PredictSharded(replicas(m.Graph, 8), m.Params, embActBytes, PCIeCommModel())
	if err != nil {
		t.Fatal(err)
	}
	if pcie.ScalingEfficiency >= multi.ScalingEfficiency {
		t.Error("PCIe should scale worse than NVLink")
	}
	if _, err := pred.PredictSharded(replicas(m.Graph, 0), m.Params, embActBytes, NVLinkCommModel()); err == nil {
		t.Error("zero devices accepted")
	}
}
