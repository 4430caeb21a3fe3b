package sim

import (
	"math"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/kernels"
)

func TestOverheadSamplerProperties(t *testing.T) {
	host := hw.V100Platform().Host
	s := NewSampler(host, 1, "")
	// Size-independence by construction: means don't take tensor sizes.
	// Model-independence: empty workload means no bias.
	if m := s.MeanFor(T1, "any"); m != T1Mean*host.OverheadScale {
		t.Errorf("T1 mean = %v", m)
	}
	// Per-op variation exists for T2.
	if s.MeanFor(T2, "aten::relu") == s.MeanFor(T2, "AddmmBackward0") {
		t.Error("T2 means should vary across ops")
	}
	// Same op, stable mean.
	if s.MeanFor(T2, "aten::relu") != s.MeanFor(T2, "aten::relu") {
		t.Error("T2 mean not stable")
	}
	// Empirical mean of samples approaches the configured mean.
	s2 := NewSampler(hw.Host{OverheadScale: 1, OverheadCV: 0.3}, 7, "")
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		sum += s2.draw(s2.opDist(T1, "x"))
	}
	if got := sum / n; math.Abs(got-T1Mean)/T1Mean > 0.05 {
		t.Errorf("empirical T1 mean = %v, want ~%v", got, T1Mean)
	}
}

func TestWorkloadBiasIsStableAndBounded(t *testing.T) {
	host := hw.V100Platform().Host
	a := NewSampler(host, 1, "DLRM_default")
	b := NewSampler(host, 2, "DLRM_default")
	if a.workloadBias(T2, "aten::relu") != b.workloadBias(T2, "aten::relu") {
		t.Error("workload bias must not depend on the seed")
	}
	c := NewSampler(host, 1, "DLRM_MLPerf")
	if a.workloadBias(T2, "aten::relu") == c.workloadBias(T2, "aten::relu") {
		t.Error("different workloads should have different biases")
	}
	for _, op := range []string{"a", "b", "c", "aten::linear"} {
		v := a.workloadBias(T2, op)
		if v < 0.7 || v > 1.3 {
			t.Errorf("bias %v out of bounds", v)
		}
	}
}

func TestT4MemcpySlower(t *testing.T) {
	s := NewSampler(hw.V100Platform().Host, 1, "")
	if s.T4Mean(kernels.RTMemcpyAsync) <= s.T4Mean(kernels.RTLaunchKernel) {
		t.Error("cudaMemcpyAsync should be slower than cudaLaunchKernel")
	}
}
