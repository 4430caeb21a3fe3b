package baselines

import (
	"math"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/models"
	"dlrmperf/internal/sim"
	"dlrmperf/internal/stats"
)

func TestHabitatScaleDirections(t *testing.T) {
	h := &Habitat{Base: hw.V100Platform(), Target: hw.P100Platform()}
	// Moving from V100 to the slower P100 must scale every kernel up.
	compute := kernels.GEMM{Batch: 1, M: 2048, N: 2048, K: 2048}
	memory := kernels.Concat{OutBytes: 1 << 24, NInputs: 2}
	if h.scale(compute) <= 1 {
		t.Errorf("compute scale to slower GPU = %v, want > 1", h.scale(compute))
	}
	if h.scale(memory) <= 1 {
		t.Errorf("memory scale to slower GPU = %v, want > 1", h.scale(memory))
	}
	// Compute-bound kernels scale closer to the FLOPS ratio; memory-bound
	// closer to the bandwidth ratio.
	fpRatio := h.Base.GPU.PeakFP32 / h.Target.GPU.PeakFP32
	bwRatio := h.Base.GPU.DRAMBandwidth / h.Target.GPU.DRAMBandwidth
	if d := h.scale(compute) - fpRatio; d > 0.2 || d < -0.2 {
		t.Errorf("compute scale %v far from FLOPS ratio %v", h.scale(compute), fpRatio)
	}
	if d := h.scale(memory) - bwRatio; d > 0.2 || d < -0.2 {
		t.Errorf("memory scale %v far from BW ratio %v", h.scale(memory), bwRatio)
	}
}

func TestHabitatMemcpyUsesPCIe(t *testing.T) {
	h := &Habitat{Base: hw.V100Platform(), Target: hw.TITANXpPlatform()}
	cp := kernels.Memcpy{NBytes: 1 << 24, Dir: kernels.H2D}
	want := h.Base.GPU.PCIeBandwidth / h.Target.GPU.PCIeBandwidth
	if got := h.scale(cp); got != want {
		t.Errorf("memcpy scale = %v, want %v", got, want)
	}
}

func TestHabitatPredictReasonableOnCNN(t *testing.T) {
	m, err := models.Build(models.NameResNet50, 16)
	if err != nil {
		t.Fatal(err)
	}
	target := hw.P100Platform()
	h := &Habitat{Base: hw.V100Platform(), Target: target, Seed: 5}
	pred := h.Predict(m.Graph, m.Name)
	meas := sim.Run(m.Graph, sim.Config{Platform: target, Seed: 9, Warmup: 1, Iters: 3, Workload: m.Name})
	if e := stats.AbsRelErr(pred, meas.MeanIterTime); e > 0.35 {
		t.Errorf("habitat resnet error = %.1f%%, want < 35%%", 100*e)
	}
}

// TestHabitatPredictRepeatable pins that a prediction is a function of
// its inputs: the per-op times are summed in graph order, not in the
// order a map happens to iterate.
func TestHabitatPredictRepeatable(t *testing.T) {
	m, err := models.Build(models.NameResNet50, 16)
	if err != nil {
		t.Fatal(err)
	}
	h := &Habitat{Base: hw.V100Platform(), Target: hw.P100Platform(), Seed: 5}
	first := h.Predict(m.Graph, m.Name)
	for i := 1; i < 10; i++ {
		if got := h.Predict(m.Graph, m.Name); math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("call %d predicted %v, first call %v", i+1, got, first)
		}
	}
}

func TestMLPredictCoveredVsUncovered(t *testing.T) {
	p := hw.V100Platform()
	ml := TrainMLPredict(p, 7)

	res, err := models.Build(models.NameResNet50, 16)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := models.Build(models.NameInceptionV3, 16)
	if err != nil {
		t.Fatal(err)
	}
	measRes := sim.Run(res.Graph, sim.Config{Platform: p, Seed: 4, Warmup: 1, Iters: 3, Workload: res.Name})
	measInc := sim.Run(inc.Graph, sim.Config{Platform: p, Seed: 4, Warmup: 1, Iters: 3, Workload: inc.Name})

	errRes := stats.AbsRelErr(ml.Predict(res.Graph), measRes.MeanIterTime)
	errInc := stats.AbsRelErr(ml.Predict(inc.Graph), measInc.MeanIterTime)
	// ResNet-50 at B=16 is inside the corpus: moderate error. Inception's
	// 1x7/7x1 stacks are the documented failure (Fig. 10's 50-73% bars).
	if errRes > 0.4 {
		t.Errorf("MLPredict resnet error = %.1f%%, should be covered", 100*errRes)
	}
	if errInc < errRes {
		t.Errorf("MLPredict should fail harder on inception: %.1f%% vs %.1f%%", 100*errInc, 100*errRes)
	}
	if errInc < 0.25 {
		t.Errorf("MLPredict inception error = %.1f%%, the coverage failure should be visible", 100*errInc)
	}
	// Failure mode bounded: the clamp prevents astronomic divergence.
	if errInc > 5 {
		t.Errorf("MLPredict inception error diverged: %.0f%%", 100*errInc)
	}
}

func TestMLPredictKernelClamp(t *testing.T) {
	p := hw.V100Platform()
	ml := TrainMLPredict(p, 11)
	// An absurd extrapolation target must stay within the clamped range.
	monster := kernels.Conv{N: 1024, C: 4096, H: 512, W: 512, K: 4096, R: 7, S: 7, Stride: 1, PadH: 3, PadW: 3}
	if got := ml.PredictKernel(monster); got > 3e6 {
		t.Errorf("clamp failed: %v µs", got)
	}
	// Non-layer kernels get the token charge.
	ew := kernels.Elementwise{Name: "relu", NElems: 1 << 20, ReadsPerElem: 4, WritesPerElem: 4}
	if got := ml.PredictKernel(ew); got > 100 {
		t.Errorf("non-layer op charge = %v, want small constant", got)
	}
}
