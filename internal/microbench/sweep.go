package microbench

import (
	"fmt"

	"dlrmperf/internal/kernels"
	"dlrmperf/internal/xrand"
)

// GenerateKernels produces n pseudo-random shapes of the given kind on an
// exponential size scale (Section III-B2: "input sizes of the benchmark
// are chosen in an almost exponential scale, e.g. 32, 64, 128"), with
// mild jitter so quantization effects are exercised, not just grid
// points.
func GenerateKernels(kind kernels.Kind, n int, rng *xrand.Rand) []kernels.Kernel {
	out := make([]kernels.Kernel, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, generateOne(kind, rng))
	}
	return out
}

// expChoice returns a power of two in [2^lo, 2^hi].
func expChoice(rng *xrand.Rand, lo, hi int) int64 {
	return int64(1) << (lo + rng.Intn(hi-lo+1))
}

// jitter perturbs v by up to +/-frac, at least keeping it >= 1.
func jitter(rng *xrand.Rand, v int64, frac float64) int64 {
	d := int64(float64(v) * frac * (2*rng.Float64() - 1))
	v += d
	if v < 1 {
		v = 1
	}
	return v
}

func generateOne(kind kernels.Kind, rng *xrand.Rand) kernels.Kernel {
	switch kind {
	case kernels.KindGEMM:
		// Mix plain (batch 1) and batched GEMMs. Dimensions go all the
		// way down to 1: DLRM's output layer is an N=1 GEMM, and the
		// interaction bmm has M=N=T+1 around 10.
		batch := int64(1)
		if rng.Float64() < 0.35 {
			batch = expChoice(rng, 3, 13) // 8..8192
		}
		return kernels.Kernel{
			Kind: kernels.KindGEMM,
			B:    batch,
			M:    jitter(rng, expChoice(rng, 0, 13), 0.2), // 1..8192
			N:    jitter(rng, expChoice(rng, 0, 13), 0.2),
			K:    jitter(rng, expChoice(rng, 0, 13), 0.2),
		}
	case kernels.KindEmbeddingFwd, kernels.KindEmbeddingBwd:
		// E spans small (fully cached) to industrial-scale tables.
		e := int64(float64(expChoice(rng, 9, 24)) * (0.75 + 0.5*rng.Float64())) // ~512..16M
		return kernels.Kernel{
			Kind: kind,
			B:    expChoice(rng, 8, 13), // 256..8192 (training batch range)
			E:    e,
			T:    []int64{1, 2, 4, 8, 16, 26, 32}[rng.Intn(7)],
			L:    []int64{1, 2, 4, 8, 10, 16, 32, 64, 100}[rng.Intn(9)],
			D:    []int64{16, 32, 64, 128, 256}[rng.Intn(5)],
		}
	case kernels.KindConcat:
		return kernels.Kernel{
			Kind:    kernels.KindConcat,
			NBytes:  jitter(rng, expChoice(rng, 10, 27), 0.3), // 1KB..128MB
			NInputs: 2 + rng.Intn(26),
		}
	case kernels.KindMemcpyH2D:
		return kernels.Kernel{Kind: kind, NBytes: jitter(rng, expChoice(rng, 10, 27), 0.3)}
	case kernels.KindTranspose:
		// Include non-multiples of 32 so alignment penalties are sampled,
		// and very small M/N: DLRM's interaction transposes are (B, F, D)
		// with F around 10.
		return kernels.Kernel{
			Kind: kernels.KindTranspose,
			B:    expChoice(rng, 0, 12),
			M:    jitter(rng, expChoice(rng, 2, 11), 0.3),
			N:    jitter(rng, expChoice(rng, 2, 11), 0.3),
		}
	case kernels.KindTrilFwd, kernels.KindTrilBwd:
		return kernels.Kernel{
			Kind: kind,
			B:    expChoice(rng, 6, 13),
			F:    4 + int64(rng.Intn(60)), // interaction features 4..63
		}
	case kernels.KindElementwise:
		return kernels.Kernel{
			Kind:          kernels.KindElementwise,
			Name:          "bench",
			NElems:        jitter(rng, expChoice(rng, 10, 26), 0.3),
			ReadsPerElem:  4 * float64(1+rng.Intn(2)),
			WritesPerElem: 4,
			FLOPsPerElem:  float64(rng.Intn(4)),
		}
	case kernels.KindConv:
		// CNN-flavored shapes, including pointwise and asymmetric filters.
		hws := []int64{7, 8, 14, 17, 28, 35, 56, 112, 149}
		hw := hws[rng.Intn(len(hws))]
		rs := [][2]int64{{1, 1}, {3, 3}, {5, 5}, {7, 7}, {1, 7}, {7, 1}, {1, 3}, {3, 1}}
		f := rs[rng.Intn(len(rs))]
		stride := int64(1)
		if rng.Float64() < 0.25 {
			stride = 2
		}
		// Mix valid (pad 0) and same padding; the "same" pad of an
		// asymmetric filter follows its longer axis.
		maxF := f[0]
		if f[1] > maxF {
			maxF = f[1]
		}
		pad := int64(0)
		if rng.Float64() < 0.6 {
			pad = maxF / 2
		}
		padH, padW := pad, pad
		if m := (f[0] - 1) / 2; padH > m {
			padH = m
		}
		if m := (f[1] - 1) / 2; padW > m {
			padW = m
		}
		return kernels.Kernel{
			Kind: kernels.KindConv,
			// Channel counts are jittered off the power-of-two grid: real
			// networks use 48/80/192/768-style widths.
			N: expChoice(rng, 2, 7),                    // 4..128
			C: jitter(rng, expChoice(rng, 4, 11), 0.4), // up to ~2.8k channels
			H: hw, W: hw,
			K: jitter(rng, expChoice(rng, 4, 11), 0.4),
			R: f[0], S: f[1],
			Stride: stride,
			PadH:   padH, PadW: padW,
		}
	case kernels.KindBatchNorm:
		hws := []int64{7, 14, 28, 56, 112}
		hw := hws[rng.Intn(len(hws))]
		return kernels.Kernel{
			Kind: kernels.KindBatchNorm,
			N:    expChoice(rng, 2, 7),
			C:    expChoice(rng, 4, 10),
			H:    hw, W: hw,
		}
	}
	panic(fmt.Sprintf("microbench: no sweep for kind %v", kind))
}

// DefaultSweepSizes returns the per-kind shape counts of the default
// (fast) sweep. The paper's full sweep is ~30k shapes per kernel; these
// defaults keep the whole calibration pipeline in seconds while leaving
// plenty of training data for the ML models.
func DefaultSweepSizes() map[kernels.Kind]int {
	return map[kernels.Kind]int{
		kernels.KindGEMM:         2600,
		kernels.KindEmbeddingFwd: 900,
		kernels.KindEmbeddingBwd: 900,
		kernels.KindConcat:       500,
		kernels.KindMemcpyH2D:    400,
		kernels.KindTranspose:    1500,
		kernels.KindTrilFwd:      600,
		kernels.KindTrilBwd:      600,
		kernels.KindElementwise:  500,
		kernels.KindConv:         2000,
		kernels.KindBatchNorm:    400,
	}
}
