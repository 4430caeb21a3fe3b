// Package kernels defines the GPU kernel taxonomy of the paper — the six
// dominating DLRM kernels (GEMM, embedding lookup forward/backward,
// concat, memcpy, transpose, tril/index) plus element-wise kernels and
// the convolution/batch-norm kernels added for the CNN comparison — and
// the *ground-truth* per-device cost model that stands in for real
// silicon in this reproduction.
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
	KindMemcpyD2H
	KindMemcpyD2D
	KindTranspose
	KindTrilFwd
	KindTrilBwd
	KindElementwise
	KindConv
	KindBatchNorm
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindGEMM:
		return "GEMM"
	case KindEmbeddingFwd:
		return "EL-F"
	case KindEmbeddingBwd:
		return "EL-B"
	case KindConcat:
		return "concat"
	case KindMemcpyH2D:
		return "memcpy"
	case KindMemcpyD2H:
		return "memcpyD2H"
	case KindMemcpyD2D:
		return "memcpyD2D"
	case KindTranspose:
		return "transpose"
	case KindTrilFwd:
		return "tril-F"
	case KindTrilBwd:
		return "tril-B"
	case KindElementwise:
		return "elementwise"
	case KindConv:
		return "conv"
	case KindBatchNorm:
		return "batchnorm"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Kinds returns every kernel kind.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Kernel is one device kernel invocation with fully resolved parameters.
// Implementations are small value types; a Kernel is what the execution
// graph attaches to ops and what performance models consume.
type Kernel interface {
	// Kind returns the kernel family used to select a performance model.
	Kind() Kind
	// FLOPs returns the floating-point work of the kernel.
	FLOPs() float64
	// Bytes returns the logical bytes read and written by the kernel.
	Bytes() (read, write float64)
	// String renders a compact human-readable description.
	String() string
}

// AppendFeatures appends the log2-scaled input features ML-based
// performance models read for k (paper Section III-B2: sizes are
// benchmarked on an exponential scale and log-transformed before
// training) to dst and returns the extended slice. It is a switch over
// the closed set of kernel types, not a Kernel method: a dst passed
// through an interface method escapes, so a caller's stack buffer would
// move to the heap on every call.
func AppendFeatures(dst []float64, k Kernel) []float64 {
	switch k := k.(type) {
	case GEMM:
		return append(dst, lg(k.Batch), lg(k.M), lg(k.N), lg(k.K))
	case Embedding:
		return append(dst, lg(k.B), lg(k.E), lg(k.T), lg(k.L), lg(k.D))
	case Concat:
		return append(dst, lg(k.OutBytes), lg(int64(k.NInputs)))
	case Memcpy:
		return append(dst, lg(k.NBytes), float64(k.Dir))
	case Transpose:
		return append(dst, lg(k.B), lg(k.M), lg(k.N))
	case Tril:
		return append(dst, lg(k.B), lg(k.F))
	case Elementwise:
		return append(dst, lg(k.NElems), k.ReadsPerElem, k.WritesPerElem)
	case Conv:
		p, q := k.OutHW()
		return append(dst, lg(k.N), lg(k.C), lg(k.H), lg(k.K), lg(k.R), lg(k.S), lg(k.Stride), lg(p*q))
	case BatchNorm:
		return append(dst, lg(k.N), lg(k.C), lg(k.H*k.W))
	}
	panic(fmt.Sprintf("kernels: no features for %T", k))
}

func lg(x int64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Log2(float64(x))
}

// GEMM is a (batched) matrix multiply C[b] = A[b] (MxK) * B[b] (KxN),
// the kernel behind addmm, bmm, linear, and their backward ops.
type GEMM struct {
	Batch, M, N, K int64
}

// Kind implements Kernel.
func (g GEMM) Kind() Kind { return KindGEMM }

// FLOPs implements Kernel.
func (g GEMM) FLOPs() float64 {
	return 2 * float64(g.Batch) * float64(g.M) * float64(g.N) * float64(g.K)
}

// Bytes implements Kernel.
func (g GEMM) Bytes() (read, write float64) {
	b := float64(g.Batch)
	read = 4 * b * (float64(g.M)*float64(g.K) + float64(g.K)*float64(g.N))
	write = 4 * b * float64(g.M) * float64(g.N)
	return read, write
}

// String implements Kernel.
func (g GEMM) String() string {
	return fmt.Sprintf("gemm(b=%d,m=%d,n=%d,k=%d)", g.Batch, g.M, g.N, g.K)
}

// Embedding describes a batched embedding-table lookup in the
// parameterization of Section III-B1a: B batch size, E rows per table,
// T tables, L lookups pooled per output vector, D embedding dimension.
// RowsPerBlock is the kernel tuning argument (output vectors per CTA).
// Backward selects the gradient+SGD-update kernel.
type Embedding struct {
	B, E, T, L, D int64
	RowsPerBlock  int64
	Backward      bool
	// ZipfSkew shapes the ground-truth index locality (0 = uniform). The
	// predictor's heuristic model does not see this field — exactly the
	// information gap the paper has between its model and real traces.
	ZipfSkew float64
}

// DefaultRowsPerBlock is the kernel launch configuration used by the
// batched embedding implementation when none is specified.
const DefaultRowsPerBlock = 32

// WithDefaults returns a copy with RowsPerBlock defaulted.
func (e Embedding) WithDefaults() Embedding {
	if e.RowsPerBlock <= 0 {
		e.RowsPerBlock = DefaultRowsPerBlock
	}
	return e
}

// Kind implements Kernel.
func (e Embedding) Kind() Kind {
	if e.Backward {
		return KindEmbeddingBwd
	}
	return KindEmbeddingFwd
}

// FLOPs implements Kernel. Pooling sums L vectors of length D per output;
// backward additionally applies an SGD update.
func (e Embedding) FLOPs() float64 {
	f := float64(e.B) * float64(e.T) * float64(e.L) * float64(e.D)
	if e.Backward {
		return 2 * f
	}
	return f
}

// Bytes implements Kernel, returning the logical (cache-oblivious)
// traffic: indices and offsets read plus L embedding rows per output.
func (e Embedding) Bytes() (read, write float64) {
	rows := float64(e.B) * float64(e.T) * float64(e.L)
	rowBytes := 4 * float64(e.D)
	idxBytes := 8 * float64(e.B) * float64(e.T) * float64(e.L)
	outBytes := 4 * float64(e.B) * float64(e.T) * float64(e.D)
	if e.Backward {
		// Read upstream gradient + weight rows, write updated rows.
		return outBytes + rows*rowBytes + idxBytes, rows * rowBytes
	}
	return rows*rowBytes + idxBytes, outBytes
}

// String implements Kernel.
func (e Embedding) String() string {
	dir := "fwd"
	if e.Backward {
		dir = "bwd"
	}
	return fmt.Sprintf("embedding_%s(B=%d,E=%d,T=%d,L=%d,D=%d)", dir, e.B, e.E, e.T, e.L, e.D)
}

// Concat is a device-side tensor concatenation producing OutBytes output
// from NInputs source tensors.
type Concat struct {
	OutBytes int64
	NInputs  int
}

// Kind implements Kernel.
func (c Concat) Kind() Kind { return KindConcat }

// FLOPs implements Kernel.
func (c Concat) FLOPs() float64 { return 0 }

// Bytes implements Kernel.
func (c Concat) Bytes() (read, write float64) {
	return float64(c.OutBytes), float64(c.OutBytes)
}

// String implements Kernel.
func (c Concat) String() string {
	return fmt.Sprintf("concat(bytes=%d,inputs=%d)", c.OutBytes, c.NInputs)
}

// MemcpyDir is the direction of a memory copy.
type MemcpyDir int

// Copy directions.
const (
	H2D MemcpyDir = iota
	D2H
	D2D
)

// Memcpy is a cudaMemcpyAsync-backed data transfer of NBytes.
type Memcpy struct {
	NBytes int64
	Dir    MemcpyDir
}

// Kind implements Kernel.
func (m Memcpy) Kind() Kind {
	switch m.Dir {
	case D2H:
		return KindMemcpyD2H
	case D2D:
		return KindMemcpyD2D
	}
	return KindMemcpyH2D
}

// FLOPs implements Kernel.
func (m Memcpy) FLOPs() float64 { return 0 }

// Bytes implements Kernel.
func (m Memcpy) Bytes() (read, write float64) {
	return float64(m.NBytes), float64(m.NBytes)
}

// String implements Kernel.
func (m Memcpy) String() string {
	dir := [...]string{"h2d", "d2h", "d2d"}[m.Dir]
	return fmt.Sprintf("memcpy_%s(bytes=%d)", dir, m.NBytes)
}

// Transpose is the batched matrix transpose — permutation of the second
// and third axes of a (B, M, N) tensor — the only permutation that occurs
// in DLRM (Section III-B).
type Transpose struct {
	B, M, N int64
}

// Kind implements Kernel.
func (t Transpose) Kind() Kind { return KindTranspose }

// FLOPs implements Kernel.
func (t Transpose) FLOPs() float64 { return 0 }

// Bytes implements Kernel.
func (t Transpose) Bytes() (read, write float64) {
	n := 4 * float64(t.B) * float64(t.M) * float64(t.N)
	return n, n
}

// String implements Kernel.
func (t Transpose) String() string {
	return fmt.Sprintf("transpose(b=%d,m=%d,n=%d)", t.B, t.M, t.N)
}

// Tril extracts (forward) or scatters (backward) the strictly lower
// triangular part of the BxFxF feature-interaction matrix and flattens it
// — the kernel behind aten::index / IndexBackward in DLRM's interaction.
type Tril struct {
	B, F     int64
	Backward bool
}

// OutElems returns the number of extracted elements per batch row,
// F*(F-1)/2.
func (t Tril) OutElems() int64 { return t.F * (t.F - 1) / 2 }

// Kind implements Kernel.
func (t Tril) Kind() Kind {
	if t.Backward {
		return KindTrilBwd
	}
	return KindTrilFwd
}

// FLOPs implements Kernel.
func (t Tril) FLOPs() float64 { return 0 }

// Bytes implements Kernel.
func (t Tril) Bytes() (read, write float64) {
	tri := 4 * float64(t.B) * float64(t.OutElems())
	full := 4 * float64(t.B) * float64(t.F) * float64(t.F)
	if t.Backward {
		// Read flattened gradient, write (zero-filled) full matrix.
		return tri, full
	}
	// Forward gathers from the full matrix.
	return full, tri
}

// String implements Kernel.
func (t Tril) String() string {
	dir := "fwd"
	if t.Backward {
		dir = "bwd"
	}
	return fmt.Sprintf("tril_%s(b=%d,f=%d)", dir, t.B, t.F)
}

// Elementwise covers relu, sigmoid, add, mse/bce loss pieces, optimizer
// update kernels, zero_, and similar memory-bound pointwise kernels. Op
// construction fills in the per-element traffic and arithmetic.
type Elementwise struct {
	// Name distinguishes sub-flavors (relu, add_, sgd_step...) in traces.
	Name string
	// NElems is the number of output elements.
	NElems int64
	// ReadsPerElem / WritesPerElem are bytes moved per output element.
	ReadsPerElem, WritesPerElem float64
	// FLOPsPerElem is arithmetic per output element.
	FLOPsPerElem float64
}

// Kind implements Kernel.
func (e Elementwise) Kind() Kind { return KindElementwise }

// FLOPs implements Kernel.
func (e Elementwise) FLOPs() float64 { return float64(e.NElems) * e.FLOPsPerElem }

// Bytes implements Kernel.
func (e Elementwise) Bytes() (read, write float64) {
	return float64(e.NElems) * e.ReadsPerElem, float64(e.NElems) * e.WritesPerElem
}

// String implements Kernel.
func (e Elementwise) String() string {
	return fmt.Sprintf("ew_%s(n=%d)", e.Name, e.NElems)
}

// Conv is a 2D convolution (N, C, H, W) -> (N, K, P, Q) with RxS filters,
// executed as an implicit GEMM (the cuDNN strategy the CNN-comparison
// microbenchmarks cover). Padding is per-axis so that asymmetric (1x7 /
// 7x1) filters with "same" padding keep their spatial dimensions.
type Conv struct {
	N, C, H, W int64
	K, R, S    int64
	Stride     int64
	PadH, PadW int64
}

// OutHW returns the output spatial dimensions.
func (c Conv) OutHW() (p, q int64) {
	p = (c.H+2*c.PadH-c.R)/c.Stride + 1
	q = (c.W+2*c.PadW-c.S)/c.Stride + 1
	if p < 1 {
		p = 1
	}
	if q < 1 {
		q = 1
	}
	return p, q
}

// AsGEMM returns the implicit-GEMM dimensions of the convolution.
func (c Conv) AsGEMM() GEMM {
	p, q := c.OutHW()
	return GEMM{Batch: 1, M: c.N * p * q, N: c.K, K: c.C * c.R * c.S}
}

// Kind implements Kernel.
func (c Conv) Kind() Kind { return KindConv }

// FLOPs implements Kernel.
func (c Conv) FLOPs() float64 { return c.AsGEMM().FLOPs() }

// Bytes implements Kernel.
func (c Conv) Bytes() (read, write float64) {
	p, q := c.OutHW()
	read = 4 * (float64(c.N)*float64(c.C)*float64(c.H)*float64(c.W) +
		float64(c.K)*float64(c.C)*float64(c.R)*float64(c.S))
	write = 4 * float64(c.N) * float64(c.K) * float64(p) * float64(q)
	return read, write
}

// String implements Kernel.
func (c Conv) String() string {
	return fmt.Sprintf("conv(n=%d,c=%d,hw=%dx%d,k=%d,rs=%dx%d,s=%d)",
		c.N, c.C, c.H, c.W, c.K, c.R, c.S, c.Stride)
}

// BatchNorm is a 2D batch normalization over (N, C, H, W), a two-pass
// memory-bound kernel (statistics reduction + normalization).
type BatchNorm struct {
	N, C, H, W int64
}

// Kind implements Kernel.
func (b BatchNorm) Kind() Kind { return KindBatchNorm }

// FLOPs implements Kernel.
func (b BatchNorm) FLOPs() float64 {
	return 5 * float64(b.N) * float64(b.C) * float64(b.H) * float64(b.W)
}

// Bytes implements Kernel. The two passes read the input twice and write
// it once, plus negligible per-channel statistics.
func (b BatchNorm) Bytes() (read, write float64) {
	n := 4 * float64(b.N) * float64(b.C) * float64(b.H) * float64(b.W)
	return 2 * n, n
}

// String implements Kernel.
func (b BatchNorm) String() string {
	return fmt.Sprintf("batchnorm(n=%d,c=%d,hw=%dx%d)", b.N, b.C, b.H, b.W)
}
