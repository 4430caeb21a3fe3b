// Package kernels defines the GPU kernel taxonomy of the paper — the six
// dominating DLRM kernels (GEMM, embedding lookup forward/backward,
// concat, memcpy, transpose, tril/index) plus element-wise kernels and
// the convolution/batch-norm kernels added for the CNN comparison — and
// the *ground-truth* per-device cost model that stands in for real
// silicon in this reproduction.
//
// A kernel is a value: one comparable Kernel struct whose Kind selects
// the performance model and names the fields that carry its shape. The
// direction of an embedding lookup or a tril is part of its Kind; the
// one copy is the host-to-device input copy. Fields a kind does not
// list stay zero:
//
//	Kind                                fields
//	KindGEMM                            B (batch), M, N, K
//	KindEmbeddingFwd, KindEmbeddingBwd  B, E, T, L, D, ZipfSkew
//	KindConcat                          NBytes (output), NInputs
//	KindMemcpyH2D                       NBytes
//	KindTranspose                       B, M, N
//	KindTrilFwd, KindTrilBwd            B, F
//	KindElementwise                     Name, NElems, ReadsPerElem, WritesPerElem, FLOPsPerElem
//	KindConv                            N, C, H, W, K, R, S, Stride, PadH, PadW
//	KindBatchNorm                       N, C, H, W
//
// Consumers switch on Kind: FLOPs, Bytes, String, Device.BaseTime and
// AppendFeatures are each one such switch, and no kernel interface
// stands between a consumer and the fields.
//
// The ground-truth model (groundtruth.go) deliberately contains more
// structure than any of the predictor's performance models: cuBLAS-style
// tile and wave quantization for GEMM, an L2-residency cache model for
// embedding lookups, bandwidth ramp-up for small memory kernels, shape
// penalties for transpose, and measurement noise. The prediction side of
// the repository (internal/perfmodel, internal/predict) never calls the
// ground truth directly; it sees only microbenchmark samples and traces,
// the same observability the paper's authors had on real GPUs.
package kernels

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies a kernel family. Kernels of the same kind share one
// performance model in the prediction pipeline (Section III of the
// paper: ops like addmm and AddmmBackward share the GEMM model).
type Kind int

// Kernel kinds.
const (
	KindGEMM Kind = iota
	KindEmbeddingFwd
	KindEmbeddingBwd
	KindConcat
	KindMemcpyH2D
	KindTranspose
	KindTrilFwd
	KindTrilBwd
	KindElementwise
	KindConv
	KindBatchNorm
	numKinds
)

// String implements fmt.Stringer. The names are the calibration asset
// format's model keys.
func (k Kind) String() string {
	if k >= 0 && k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// The CUDA runtime functions that launch kernels, as traces and the
// overhead database's T4 table name them.
const (
	RTLaunchKernel = "cudaLaunchKernel"
	RTMemcpyAsync  = "cudaMemcpyAsync"
)

// RuntimeCall returns the CUDA runtime function that launches a kernel
// of kind k: the host-to-device input copy goes through
// cudaMemcpyAsync, every other kind through cudaLaunchKernel.
func (k Kind) RuntimeCall() string {
	if k == KindMemcpyH2D {
		return RTMemcpyAsync
	}
	return RTLaunchKernel
}

// Kinds returns every kernel kind.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Kernel is one device kernel invocation with fully resolved parameters:
// what the execution graph attaches to ops and what performance models
// consume. The package doc lists the fields each Kind uses. A Kernel is
// 27 words, so the prediction hot path (FLOPs, Bytes, AppendFeatures and
// the performance models) takes it by pointer rather than copy it per
// call.
type Kernel struct {
	Kind Kind
	// GEMM: B batched (MxK)(KxN) products, the kernel behind addmm,
	// bmm, linear and their backward ops. Transpose: the (B, M, N)
	// tensor whose last two axes swap, the only permutation in DLRM.
	// Tril: extraction (forward) or scatter (backward) of the strictly
	// lower triangle of the BxFxF interaction matrix, behind aten::index
	// and IndexBackward. Embedding (Section III-B1a): B batch size, E
	// rows per table, T tables, L lookups pooled per output vector, D
	// embedding dimension.
	B, M, N, K, E, T, L, D, F int64
	// Conv: (N, C, H, W) -> (N, K, P, Q) with RxS filters, run as an
	// implicit GEMM, padding per axis so that asymmetric (1x7 / 7x1)
	// filters with "same" padding keep their spatial dimensions.
	// BatchNorm: a two-pass normalization over (N, C, H, W).
	C, H, W, R, S      int64
	Stride, PadH, PadW int64
	// NBytes is a memcpy's transfer size or a concat's output size;
	// NInputs is a concat's source tensor count.
	NBytes  int64
	NInputs int
	// ZipfSkew shapes the ground-truth embedding index locality (0 =
	// uniform). The predictor's heuristic model does not see this field
	// — exactly the information gap the paper has between its model and
	// real traces.
	ZipfSkew float64
	// Elementwise (relu, add, loss pieces, optimizer updates, zero_):
	// Name distinguishes the flavor in traces, NElems counts output
	// elements, and the per-element fields are bytes moved and
	// arithmetic per output element.
	Name                                      string
	NElems                                    int64
	ReadsPerElem, WritesPerElem, FLOPsPerElem float64
}

// Backward reports whether k is the backward kernel of an embedding
// lookup (the gradient+SGD-update kernel) or of a tril extraction.
func (k Kernel) Backward() bool {
	return k.Kind == KindEmbeddingBwd || k.Kind == KindTrilBwd
}

// FLOPs returns the floating-point work of the kernel; memory kernels
// do none.
func (k *Kernel) FLOPs() float64 {
	switch k.Kind {
	case KindGEMM:
		return 2 * float64(k.B) * float64(k.M) * float64(k.N) * float64(k.K)
	case KindEmbeddingFwd, KindEmbeddingBwd:
		// Pooling sums L vectors of length D per output; backward
		// additionally applies an SGD update.
		f := float64(k.B) * float64(k.T) * float64(k.L) * float64(k.D)
		if k.Backward() {
			return 2 * f
		}
		return f
	case KindElementwise:
		return float64(k.NElems) * k.FLOPsPerElem
	case KindConv:
		g := k.AsGEMM()
		return g.FLOPs()
	case KindBatchNorm:
		return 5 * float64(k.N) * float64(k.C) * float64(k.H) * float64(k.W)
	}
	return 0
}

// Bytes returns the logical bytes read and written by the kernel.
func (k *Kernel) Bytes() (read, write float64) {
	switch k.Kind {
	case KindGEMM:
		b := float64(k.B)
		read = 4 * b * (float64(k.M)*float64(k.K) + float64(k.K)*float64(k.N))
		write = 4 * b * float64(k.M) * float64(k.N)
		return read, write
	case KindEmbeddingFwd, KindEmbeddingBwd:
		// The logical (cache-oblivious) traffic: indices and offsets read
		// plus L embedding rows per output.
		rows := float64(k.B) * float64(k.T) * float64(k.L)
		rowBytes := 4 * float64(k.D)
		idxBytes := 8 * float64(k.B) * float64(k.T) * float64(k.L)
		outBytes := 4 * float64(k.B) * float64(k.T) * float64(k.D)
		if k.Backward() {
			// Read upstream gradient + weight rows, write updated rows.
			return outBytes + rows*rowBytes + idxBytes, rows * rowBytes
		}
		return rows*rowBytes + idxBytes, outBytes
	case KindConcat, KindMemcpyH2D:
		return float64(k.NBytes), float64(k.NBytes)
	case KindTranspose:
		n := 4 * float64(k.B) * float64(k.M) * float64(k.N)
		return n, n
	case KindTrilFwd, KindTrilBwd:
		tri := 4 * float64(k.B) * float64(k.OutElems())
		full := 4 * float64(k.B) * float64(k.F) * float64(k.F)
		if k.Backward() {
			// Read flattened gradient, write (zero-filled) full matrix.
			return tri, full
		}
		// Forward gathers from the full matrix.
		return full, tri
	case KindElementwise:
		return float64(k.NElems) * k.ReadsPerElem, float64(k.NElems) * k.WritesPerElem
	case KindConv:
		p, q := k.OutHW()
		read = 4 * (float64(k.N)*float64(k.C)*float64(k.H)*float64(k.W) +
			float64(k.K)*float64(k.C)*float64(k.R)*float64(k.S))
		write = 4 * float64(k.N) * float64(k.K) * float64(p) * float64(q)
		return read, write
	case KindBatchNorm:
		// The two passes read the input twice and write it once, plus
		// negligible per-channel statistics.
		n := 4 * float64(k.N) * float64(k.C) * float64(k.H) * float64(k.W)
		return 2 * n, n
	}
	panic(unknown(k.Kind))
}

// String renders a compact human-readable description.
func (k Kernel) String() string {
	var buf [96]byte
	return string(k.AppendString(buf[:0]))
}

// AppendString appends String's rendering of k to dst.
func (k *Kernel) AppendString(dst []byte) []byte {
	switch k.Kind {
	case KindGEMM:
		return appendf(dst, "gemm(b=%,m=%,n=%,k=%)", k.B, k.M, k.N, k.K)
	case KindEmbeddingFwd, KindEmbeddingBwd:
		dst = append(append(dst, "embedding_"...), direction(k.Backward())...)
		return appendf(dst, "(B=%,E=%,T=%,L=%,D=%)", k.B, k.E, k.T, k.L, k.D)
	case KindConcat:
		return appendf(dst, "concat(bytes=%,inputs=%)", k.NBytes, int64(k.NInputs))
	case KindMemcpyH2D:
		return appendf(dst, "memcpy_h2d(bytes=%)", k.NBytes)
	case KindTranspose:
		return appendf(dst, "transpose(b=%,m=%,n=%)", k.B, k.M, k.N)
	case KindTrilFwd, KindTrilBwd:
		dst = append(append(dst, "tril_"...), direction(k.Backward())...)
		return appendf(dst, "(b=%,f=%)", k.B, k.F)
	case KindElementwise:
		return appendf(append(append(dst, "ew_"...), k.Name...), "(n=%)", k.NElems)
	case KindConv:
		return appendf(dst, "conv(n=%,c=%,hw=%x%,k=%,rs=%x%,s=%)", k.N, k.C, k.H, k.W, k.K, k.R, k.S, k.Stride)
	case KindBatchNorm:
		return appendf(dst, "batchnorm(n=%,c=%,hw=%x%)", k.N, k.C, k.H, k.W)
	}
	panic(unknown(k.Kind))
}

func direction(backward bool) string {
	if backward {
		return "bwd"
	}
	return "fwd"
}

// appendf appends format to dst with each % replaced by the next of
// vals in decimal.
func appendf(dst []byte, format string, vals ...int64) []byte {
	for _, v := range vals {
		i := strings.IndexByte(format, '%')
		dst = strconv.AppendInt(append(dst, format[:i]...), v, 10)
		format = format[i+1:]
	}
	return append(dst, format...)
}

func unknown(k Kind) string { return fmt.Sprintf("kernels: unknown kernel kind %v", k) }

// RowsPerBlock is the batched embedding kernel's launch configuration:
// output vectors per CTA, the same for every lookup.
const RowsPerBlock = 32

// OutElems returns the number of elements a tril extraction yields per
// batch row, F*(F-1)/2.
func (k Kernel) OutElems() int64 { return k.F * (k.F - 1) / 2 }

// OutHW returns a convolution's output spatial dimensions.
func (k Kernel) OutHW() (p, q int64) {
	p = (k.H+2*k.PadH-k.R)/k.Stride + 1
	q = (k.W+2*k.PadW-k.S)/k.Stride + 1
	if p < 1 {
		p = 1
	}
	if q < 1 {
		q = 1
	}
	return p, q
}

// AsGEMM returns the implicit-GEMM dimensions of a convolution, the
// cuDNN strategy the CNN-comparison microbenchmarks cover.
func (k Kernel) AsGEMM() Kernel {
	p, q := k.OutHW()
	return Kernel{Kind: KindGEMM, B: 1, M: k.N * p * q, N: k.K, K: k.C * k.R * k.S}
}

// AppendFeatures appends the log2-scaled input features ML-based
// performance models read for k (paper Section III-B2: sizes are
// benchmarked on an exponential scale and log-transformed before
// training) to dst and returns the extended slice.
func AppendFeatures(dst []float64, k *Kernel) []float64 {
	switch k.Kind {
	case KindGEMM:
		return append(dst, lg(k.B), lg(k.M), lg(k.N), lg(k.K))
	case KindEmbeddingFwd, KindEmbeddingBwd:
		return append(dst, lg(k.B), lg(k.E), lg(k.T), lg(k.L), lg(k.D))
	case KindConcat:
		return append(dst, lg(k.NBytes), lg(int64(k.NInputs)))
	case KindMemcpyH2D:
		// 0 was H2D's direction code; it keeps memcpy models' input width.
		return append(dst, lg(k.NBytes), 0)
	case KindTranspose:
		return append(dst, lg(k.B), lg(k.M), lg(k.N))
	case KindTrilFwd, KindTrilBwd:
		return append(dst, lg(k.B), lg(k.F))
	case KindElementwise:
		return append(dst, lg(k.NElems), k.ReadsPerElem, k.WritesPerElem)
	case KindConv:
		p, q := k.OutHW()
		return append(dst, lg(k.N), lg(k.C), lg(k.H), lg(k.K), lg(k.R), lg(k.S), lg(k.Stride), lg(p*q))
	case KindBatchNorm:
		return append(dst, lg(k.N), lg(k.C), lg(k.H*k.W))
	}
	panic(unknown(k.Kind))
}

// FeatureWidth is the length of the feature vector AppendFeatures
// appends for a kernel of kind k: the input width an ML-based model of
// that kind must have.
func FeatureWidth(k Kind) int { return featureWidths[k] }

var featureWidths = [numKinds]int{
	KindGEMM:         4,
	KindEmbeddingFwd: 5,
	KindEmbeddingBwd: 5,
	KindConcat:       2,
	KindMemcpyH2D:    2,
	KindTranspose:    3,
	KindTrilFwd:      2,
	KindTrilBwd:      2,
	KindElementwise:  3,
	KindConv:         8,
	KindBatchNorm:    3,
}

var kindNames = [numKinds]string{
	KindGEMM:         "GEMM",
	KindEmbeddingFwd: "EL-F",
	KindEmbeddingBwd: "EL-B",
	KindConcat:       "concat",
	KindMemcpyH2D:    "memcpy",
	KindTranspose:    "transpose",
	KindTrilFwd:      "tril-F",
	KindTrilBwd:      "tril-B",
	KindElementwise:  "elementwise",
	KindConv:         "conv",
	KindBatchNorm:    "batchnorm",
}

func lg(x int64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Log2(float64(x))
}
