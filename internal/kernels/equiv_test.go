package kernels

import (
	"testing"

	"dlrmperf/internal/hw"
)

// TestRunAveragedEqualsMeanOfRuns: RunAveraged computes the noise-free
// time once for all its repeats; it must still equal, bit for bit and
// draw for draw, the mean of that many Run calls on a device with the
// same seed.
func TestRunAveragedEqualsMeanOfRuns(t *testing.T) {
	ks := []Kernel{
		{Kind: KindGEMM, B: 1, M: 512, N: 300, K: 77},
		{Kind: KindEmbeddingFwd, B: 512, E: 100000, T: 8, L: 20, D: 64},
		{Kind: KindMemcpyH2D, NBytes: 1 << 20},
		{Kind: KindElementwise, Name: "relu", NElems: 1 << 16, ReadsPerElem: 4, WritesPerElem: 4, FLOPsPerElem: 1},
	}
	for _, p := range hw.All() {
		averaged, single := NewDevice(p.GPU, 99), NewDevice(p.GPU, 99)
		for _, n := range []int{1, 5, 30} {
			for _, k := range ks {
				sum := 0.0
				for i := 0; i < n; i++ {
					sum += single.Noisy(single.BaseTime(k))
				}
				if got, want := averaged.RunAveraged(k, n), sum/float64(n); got != want {
					t.Errorf("%s %s: RunAveraged(%d) = %v, mean of single runs = %v", p.GPU.Name, k, n, got, want)
				}
			}
		}
	}
}
