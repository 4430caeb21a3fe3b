package ops

import (
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/stats"
	"dlrmperf/internal/tensor"
)

// EmbeddingLookup is the batched embedding-table lookup op
// (LookupFunction in the paper's traces): T tables processed by a single
// fused kernel, the Tulloch batched implementation the paper integrates
// into DLRM. The input is the (B, T, L) int64 index tensor; the output is
// the (B, T, D) dense activations.
type EmbeddingLookup struct {
	// Rows holds the number of embeddings per table (length T). Tables
	// may differ in size (DLRM_MLPerf); the kernel-level performance
	// model only ever sees the average, which is one of the error
	// sources the paper calls out.
	Rows []int64
	// L is the pooling factor (lookups per output vector).
	L int64
	// D is the embedding dimension.
	D int64
	// ZipfSkew shapes the synthetic index locality for the ground truth.
	ZipfSkew float64
	// Backward selects LookupFunctionBackward (gradient + fused SGD).
	Backward bool
}

// T returns the number of tables.
func (e EmbeddingLookup) T() int64 { return int64(len(e.Rows)) }

// AvgRows returns the mean table size, the value performance models see.
func (e EmbeddingLookup) AvgRows() int64 {
	if len(e.Rows) == 0 {
		return 0
	}
	s := int64(0)
	for _, r := range e.Rows {
		s += r
	}
	return s / int64(len(e.Rows))
}

// rowsCV returns the coefficient of variation of table sizes, which the
// ground truth uses to model the nonlinear cache behavior of mixed table
// sizes (hidden from the predictor).
func (e EmbeddingLookup) rowsCV() float64 {
	if len(e.Rows) < 2 {
		return 0
	}
	var stack [32]float64 // holds every built-in population without allocating
	xs := stack[:0]
	for _, r := range e.Rows {
		xs = append(xs, float64(r))
	}
	m := stats.Mean(xs)
	if m == 0 {
		return 0
	}
	return stats.Std(xs) / m
}

// Name implements Op.
func (e EmbeddingLookup) Name() string {
	if e.Backward {
		return "LookupFunctionBackward"
	}
	return "LookupFunction"
}

// AppendOutputs implements Op.
func (e EmbeddingLookup) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	if e.Backward {
		// Inputs: saved indices, upstream gradient. Updates are applied
		// in place (fused SGD); emit a token scalar output so downstream
		// dependency edges exist.
		assertInputs(e.Name(), inputs, 2)
		return append(dst, tensor.New())
	}
	assertInputs(e.Name(), inputs, 1)
	b := inputs[0].Dim(0)
	return append(dst, tensor.New(b, e.T(), e.D))
}

// AppendKernels implements Op.
func (e EmbeddingLookup) AppendKernels(dst []kernels.Kernel, inputs []tensor.Meta) []kernels.Kernel {
	b := inputs[0].Dim(0)
	k := kernels.Kernel{
		Kind: embeddingKind(e.Backward), B: b, E: e.AvgRows(), T: e.T(), L: e.L, D: e.D,
		ZipfSkew: e.ZipfSkew,
	}
	// Mixed table sizes cache worse than their average suggests; fold the
	// spread into the locality knob the ground truth sees. Performance
	// models receive only (B, E, T, L, D).
	if cv := e.rowsCV(); cv > 0 {
		k.ZipfSkew -= 0.05 * cv
		if k.ZipfSkew < -0.2 {
			k.ZipfSkew = -0.2
		}
	}
	return append(dst, k)
}

// EmbeddingBag is a single-table lookup (aten::embedding_bag), the
// *unfused* form of Fig. 11's left side: DLRM variants built with one
// EmbeddingBag per table pay per-op overheads T times, which is exactly
// the fusion opportunity the co-design study exploits.
type EmbeddingBag struct {
	Rows     int64
	L, D     int64
	ZipfSkew float64
	Backward bool
}

// Name implements Op.
func (e EmbeddingBag) Name() string {
	if e.Backward {
		return "EmbeddingBagBackward0"
	}
	return "aten::embedding_bag"
}

// AppendOutputs implements Op.
func (e EmbeddingBag) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	if e.Backward {
		assertInputs(e.Name(), inputs, 2)
		return append(dst, tensor.New())
	}
	assertInputs(e.Name(), inputs, 1)
	b := inputs[0].Dim(0)
	return append(dst, tensor.New(b, int64(1), e.D))
}

// AppendKernels implements Op.
func (e EmbeddingBag) AppendKernels(dst []kernels.Kernel, inputs []tensor.Meta) []kernels.Kernel {
	b := inputs[0].Dim(0)
	return append(dst, kernels.Kernel{
		Kind: embeddingKind(e.Backward), B: b, E: e.Rows, T: 1, L: e.L, D: e.D,
		ZipfSkew: e.ZipfSkew,
	})
}

// embeddingKind is the lookup kernel's kind in the given direction.
func embeddingKind(backward bool) kernels.Kind {
	if backward {
		return kernels.KindEmbeddingBwd
	}
	return kernels.KindEmbeddingFwd
}

// TrilIndex extracts the strictly-lower-triangular entries of the feature
// interaction matrix (aten::index with tril indices). Input (B, F, F),
// output (B, F*(F-1)/2).
type TrilIndex struct{}

// Name implements Op.
func (TrilIndex) Name() string { return "aten::index" }

// AppendOutputs implements Op.
func (TrilIndex) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	assertInputs("aten::index", inputs, 1)
	in := inputs[0]
	f := in.Dim(1)
	return append(dst, tensor.New(in.Dim(0), f*(f-1)/2))
}

// AppendKernels implements Op.
func (TrilIndex) AppendKernels(dst []kernels.Kernel, inputs []tensor.Meta) []kernels.Kernel {
	in := inputs[0]
	return append(dst, kernels.Kernel{Kind: kernels.KindTrilFwd, B: in.Dim(0), F: in.Dim(1)})
}

// TrilIndexBackward is IndexBackward0: scatter the flattened gradient
// back into a zero-filled (B, F, F) matrix. Input: grad (B, F*(F-1)/2)
// plus the saved interaction shape via F.
type TrilIndexBackward struct{ F int64 }

// Name implements Op.
func (TrilIndexBackward) Name() string { return "IndexBackward0" }

// AppendOutputs implements Op.
func (t TrilIndexBackward) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	assertInputs("IndexBackward0", inputs, 1)
	return append(dst, tensor.New(inputs[0].Dim(0), t.F, t.F))
}

// AppendKernels implements Op.
func (t TrilIndexBackward) AppendKernels(dst []kernels.Kernel, inputs []tensor.Meta) []kernels.Kernel {
	return append(dst, kernels.Kernel{Kind: kernels.KindTrilBwd, B: inputs[0].Dim(0), F: t.F})
}
