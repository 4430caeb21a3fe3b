package kernels

import (
	"fmt"
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
					sum += single.Noisy(single.BaseTime(&k))
				}
				if got, want := averaged.RunAveraged(&k, n), sum/float64(n); got != want {
					t.Errorf("%s %s: RunAveraged(%d) = %v, mean of single runs = %v", p.GPU.Name, k, n, got, want)
				}
			}
		}
	}
}

// refString is the fmt rendering of a kernel that Device.quirk hashed
// before AppendString; the quirk's bytes must not move.
func refString(k Kernel) string {
	dir := "fwd"
	if k.Backward() {
		dir = "bwd"
	}
	switch k.Kind {
	case KindGEMM:
		return fmt.Sprintf("gemm(b=%d,m=%d,n=%d,k=%d)", k.B, k.M, k.N, k.K)
	case KindEmbeddingFwd, KindEmbeddingBwd:
		return fmt.Sprintf("embedding_%s(B=%d,E=%d,T=%d,L=%d,D=%d)", dir, k.B, k.E, k.T, k.L, k.D)
	case KindConcat:
		return fmt.Sprintf("concat(bytes=%d,inputs=%d)", k.NBytes, k.NInputs)
	case KindMemcpyH2D:
		return fmt.Sprintf("memcpy_h2d(bytes=%d)", k.NBytes)
	case KindTranspose:
		return fmt.Sprintf("transpose(b=%d,m=%d,n=%d)", k.B, k.M, k.N)
	case KindTrilFwd, KindTrilBwd:
		return fmt.Sprintf("tril_%s(b=%d,f=%d)", dir, k.B, k.F)
	case KindElementwise:
		return fmt.Sprintf("ew_%s(n=%d)", k.Name, k.NElems)
	case KindConv:
		return fmt.Sprintf("conv(n=%d,c=%d,hw=%dx%d,k=%d,rs=%dx%d,s=%d)", k.N, k.C, k.H, k.W, k.K, k.R, k.S, k.Stride)
	}
	return fmt.Sprintf("batchnorm(n=%d,c=%d,hw=%dx%d)", k.N, k.C, k.H, k.W)
}

// TestStringMatchesFmt: every kind renders as the fmt reference does,
// negative and large dimensions included.
func TestStringMatchesFmt(t *testing.T) {
	for _, kind := range Kinds() {
		for _, d := range []int64{0, 7, -3, 1 << 40} {
			k := Kernel{Kind: kind, B: d, M: d + 1, N: d + 2, K: d + 3, E: d + 4, T: d + 5, L: d + 6, D: d + 7, F: d + 8,
				C: d + 9, H: d + 10, W: d + 11, R: d + 12, S: d + 13, Stride: d + 14, NBytes: d + 15, NInputs: int(d) + 16,
				NElems: d + 17, Name: "add_"}
			if got, want := k.String(), refString(k); got != want {
				t.Errorf("String() = %q, fmt renders %q", got, want)
			}
		}
	}
}
