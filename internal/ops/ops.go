// Package ops defines the operator vocabulary of the modeled workloads.
// An Op is a shape-polymorphic operator: given input tensor metadata it
// reports its output metadata and the device kernels it launches. Ops
// carry the PyTorch trace names the paper reports (aten::linear,
// AddmmBackward0, LookupFunction, ...) so that breakdowns and overhead
// tables read like the paper's figures.
//
// Keeping kernels derived (rather than stored) is what makes the
// execution-graph transforms of Section V-A possible: resizing a batch or
// fusing a subgraph re-propagates shapes and the kernel calls follow.
//
// Both derivations follow the append contract: an op appends what it
// derives to dst and returns the extended slice, leaving dst's existing
// elements as they were, and keeps neither dst nor the inputs after it
// returns. A walk over many nodes passes the previous result re-sliced
// to [:0], so the whole walk holds one buffer of each kind.
package ops

import (
	"fmt"

	"dlrmperf/internal/kernels"
	"dlrmperf/internal/tensor"
)

// Op is one operator type instance.
type Op interface {
	// Name returns the trace name (used to key overhead statistics).
	Name() string
	// AppendOutputs appends the output tensor metadata derived from the
	// inputs to dst and returns the extended slice.
	AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta
	// AppendKernels appends the device kernel calls for the given inputs
	// to dst and returns the extended slice. Host-only ops (aten::view
	// ...) return dst unchanged.
	AppendKernels(dst []kernels.Kernel, inputs []tensor.Meta) []kernels.Kernel
}

func assertInputs(op string, inputs []tensor.Meta, want int) {
	if len(inputs) != want {
		panic(fmt.Sprintf("ops: %s expects %d inputs, got %d", op, want, len(inputs)))
	}
}

// --- Element-wise family -------------------------------------------------

// Elementwise is a generic pointwise operator emitting a single
// element-wise kernel sized by its first input.
type Elementwise struct {
	OpName string
	// ReadsPerElem/WritesPerElem/FLOPsPerElem parameterize the kernel.
	ReadsPerElem, WritesPerElem, FLOPsPerElem float64
	// ScalarOutput collapses the output to a scalar (losses, sums).
	ScalarOutput bool
	// NInputs is the expected input count (default 1).
	NInputs int
}

// Name implements Op.
func (e Elementwise) Name() string { return e.OpName }

// AppendOutputs implements Op.
func (e Elementwise) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	n := e.NInputs
	if n == 0 {
		n = 1
	}
	assertInputs(e.OpName, inputs, n)
	if e.ScalarOutput {
		return append(dst, tensor.New())
	}
	return append(dst, inputs[0])
}

// AppendKernels implements Op.
func (e Elementwise) AppendKernels(dst []kernels.Kernel, inputs []tensor.Meta) []kernels.Kernel {
	return append(dst, kernels.Elementwise{
		Name:          shortName(e.OpName),
		NElems:        inputs[0].Numel(),
		ReadsPerElem:  e.ReadsPerElem,
		WritesPerElem: e.WritesPerElem,
		FLOPsPerElem:  e.FLOPsPerElem,
	})
}

func shortName(opName string) string {
	// "aten::relu" -> "relu"
	for i := len(opName) - 1; i >= 0; i-- {
		if opName[i] == ':' {
			return opName[i+1:]
		}
	}
	return opName
}

// ReLU returns aten::relu.
func ReLU() Op {
	return Elementwise{OpName: "aten::relu", ReadsPerElem: 4, WritesPerElem: 4, FLOPsPerElem: 1}
}

// ReLUBackward returns ReluBackward0 (reads grad and saved mask).
func ReLUBackward() Op {
	return Elementwise{OpName: "ReluBackward0", ReadsPerElem: 8, WritesPerElem: 4, FLOPsPerElem: 1}
}

// Sigmoid returns aten::sigmoid.
func Sigmoid() Op {
	return Elementwise{OpName: "aten::sigmoid", ReadsPerElem: 4, WritesPerElem: 4, FLOPsPerElem: 4}
}

// SigmoidBackward returns SigmoidBackward0.
func SigmoidBackward() Op {
	return Elementwise{OpName: "SigmoidBackward0", ReadsPerElem: 8, WritesPerElem: 4, FLOPsPerElem: 3}
}

// Add returns aten::add_ over two same-shaped tensors.
func Add() Op {
	return Elementwise{OpName: "aten::add_", ReadsPerElem: 8, WritesPerElem: 4, FLOPsPerElem: 1, NInputs: 2}
}

// MSELoss returns aten::mse_loss (pointwise diff + reduction fused).
func MSELoss() Op {
	return Elementwise{OpName: "aten::mse_loss", ReadsPerElem: 8, WritesPerElem: 0.1,
		FLOPsPerElem: 3, ScalarOutput: true, NInputs: 2}
}

// MSELossBackward returns MseLossBackward0.
func MSELossBackward() Op {
	return Elementwise{OpName: "MseLossBackward0", ReadsPerElem: 8, WritesPerElem: 4,
		FLOPsPerElem: 2, NInputs: 2}
}

// BCELoss returns aten::binary_cross_entropy.
func BCELoss() Op {
	return Elementwise{OpName: "aten::binary_cross_entropy", ReadsPerElem: 8, WritesPerElem: 0.1,
		FLOPsPerElem: 8, ScalarOutput: true, NInputs: 2}
}

// BCELossBackward returns BinaryCrossEntropyBackward0.
func BCELossBackward() Op {
	return Elementwise{OpName: "BinaryCrossEntropyBackward0", ReadsPerElem: 8, WritesPerElem: 4,
		FLOPsPerElem: 6, NInputs: 2}
}

// AccumulateGrad returns the autograd grad-accumulation node for one
// parameter tensor.
func AccumulateGrad() Op {
	return Elementwise{OpName: "AccumulateGrad", ReadsPerElem: 8, WritesPerElem: 4, FLOPsPerElem: 1}
}

// Softmax returns aten::softmax (read twice: max+exp pass, normalize pass).
func Softmax() Op {
	return Elementwise{OpName: "aten::softmax", ReadsPerElem: 8, WritesPerElem: 4, FLOPsPerElem: 6}
}

// SoftmaxBackward returns SoftmaxBackward0.
func SoftmaxBackward() Op {
	return Elementwise{OpName: "SoftmaxBackward0", ReadsPerElem: 12, WritesPerElem: 4, FLOPsPerElem: 4}
}

// LayerNorm returns aten::layer_norm.
func LayerNorm() Op {
	return Elementwise{OpName: "aten::layer_norm", ReadsPerElem: 8, WritesPerElem: 4, FLOPsPerElem: 6}
}

// LayerNormBackward returns NativeLayerNormBackward0.
func LayerNormBackward() Op {
	return Elementwise{OpName: "NativeLayerNormBackward0", ReadsPerElem: 16, WritesPerElem: 8, FLOPsPerElem: 8}
}

// SliceBackward is the autograd node of one aten::cat input
// (SliceBackward0): it copies the corresponding slice of the upstream
// gradient out into a (B, Cols) tensor.
type SliceBackward struct{ Cols int64 }

// Name implements Op.
func (SliceBackward) Name() string { return "SliceBackward0" }

// AppendOutputs implements Op.
func (s SliceBackward) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	assertInputs("SliceBackward0", inputs, 1)
	return append(dst, tensor.New(inputs[0].Dim(0), s.Cols))
}

// AppendKernels implements Op.
func (s SliceBackward) AppendKernels(dst []kernels.Kernel, inputs []tensor.Meta) []kernels.Kernel {
	return append(dst, kernels.Elementwise{
		Name: "slice_backward", NElems: inputs[0].Dim(0) * s.Cols,
		ReadsPerElem: 4, WritesPerElem: 4,
	})
}

// View returns aten::view — a host-only metadata op with no kernels, the
// paper's example of an op whose T5 path is taken in Algorithm 1.
type View struct{ NewShape []int64 }

// Name implements Op.
func (v View) Name() string { return "aten::view" }

// AppendOutputs implements Op.
func (v View) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	assertInputs("aten::view", inputs, 1)
	if len(v.NewShape) == 0 {
		// Flatten keeping dim 0.
		b := inputs[0].Dim(0)
		return append(dst, tensor.NewTyped(inputs[0].DType, b, inputs[0].Numel()/b))
	}
	shape := append([]int64(nil), v.NewShape...)
	n := inputs[0].Numel()
	known := int64(1)
	infer := -1
	for i, d := range shape {
		if d == -1 {
			infer = i
			continue
		}
		known *= d
	}
	if infer >= 0 && known > 0 {
		shape[infer] = n / known
	}
	return append(dst, tensor.NewTyped(inputs[0].DType, shape...))
}

// AppendKernels implements Op.
func (View) AppendKernels(dst []kernels.Kernel, _ []tensor.Meta) []kernels.Kernel { return dst }

// --- Data movement ---------------------------------------------------------

// ToDevice copies its input host->device (aten::to).
type ToDevice struct{}

// Name implements Op.
func (ToDevice) Name() string { return "aten::to" }

// AppendOutputs implements Op.
func (ToDevice) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	assertInputs("aten::to", inputs, 1)
	return append(dst, inputs[0])
}

// AppendKernels implements Op.
func (ToDevice) AppendKernels(dst []kernels.Kernel, inputs []tensor.Meta) []kernels.Kernel {
	return append(dst, kernels.Memcpy{NBytes: inputs[0].Bytes(), Dir: kernels.H2D})
}

// Concat concatenates its inputs along Dim (aten::cat).
type Concat struct{ Dim int }

// Name implements Op.
func (Concat) Name() string { return "aten::cat" }

// AppendOutputs implements Op.
func (c Concat) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	d, total := c.axis(inputs)
	out := append([]int64(nil), inputs[0].Shape...)
	out[d] = total
	return append(dst, tensor.NewTyped(inputs[0].DType, out...))
}

// AppendKernels implements Op. It sizes the output without building its
// shape.
func (c Concat) AppendKernels(dst []kernels.Kernel, inputs []tensor.Meta) []kernels.Kernel {
	d, total := c.axis(inputs)
	bytes := inputs[0].DType.Size()
	for i, n := range inputs[0].Shape {
		if i == d {
			n = total
		}
		bytes *= n
	}
	return append(dst, kernels.Concat{OutBytes: bytes, NInputs: len(inputs)})
}

// axis returns the concatenation axis, made non-negative, and the
// output's extent along it.
func (c Concat) axis(inputs []tensor.Meta) (d int, total int64) {
	if len(inputs) == 0 {
		panic("ops: aten::cat with no inputs")
	}
	for _, in := range inputs {
		total += in.Dim(c.Dim)
	}
	d = c.Dim
	if d < 0 {
		d += inputs[0].Rank()
	}
	return d, total
}

// TransposeOp permutes the last two axes of a 3D tensor (aten::transpose
// materialized by a JIT permute kernel).
type TransposeOp struct{}

// Name implements Op.
func (TransposeOp) Name() string { return "aten::transpose" }

// AppendOutputs implements Op.
func (TransposeOp) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	assertInputs("aten::transpose", inputs, 1)
	in := inputs[0]
	if in.Rank() != 3 {
		panic("ops: aten::transpose models batched 2<->3 axis permutation only")
	}
	return append(dst, tensor.NewTyped(in.DType, in.Dim(0), in.Dim(2), in.Dim(1)))
}

// AppendKernels implements Op.
func (TransposeOp) AppendKernels(dst []kernels.Kernel, inputs []tensor.Meta) []kernels.Kernel {
	in := inputs[0]
	return append(dst, kernels.Transpose{B: in.Dim(0), M: in.Dim(1), N: in.Dim(2)})
}

// TBackward is the autograd node of a transpose (TBackward0).
type TBackward struct{}

// Name implements Op.
func (TBackward) Name() string { return "TBackward0" }

// AppendOutputs implements Op.
func (TBackward) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	return TransposeOp{}.AppendOutputs(dst, inputs)
}

// AppendKernels implements Op.
func (TBackward) AppendKernels(dst []kernels.Kernel, inputs []tensor.Meta) []kernels.Kernel {
	return TransposeOp{}.AppendKernels(dst, inputs)
}

// --- GEMM family -------------------------------------------------------------

// Linear is aten::linear: x(B,in) @ W(in,out) + bias.
type Linear struct{ Out int64 }

// Name implements Op.
func (Linear) Name() string { return "aten::linear" }

// AppendOutputs implements Op.
func (l Linear) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	assertInputs("aten::linear", inputs, 1)
	return append(dst, tensor.New(inputs[0].Dim(0), l.Out))
}

// AppendKernels implements Op.
func (l Linear) AppendKernels(dst []kernels.Kernel, inputs []tensor.Meta) []kernels.Kernel {
	in := inputs[0]
	return append(dst, kernels.GEMM{Batch: 1, M: in.Dim(0), N: l.Out, K: in.Dim(1)})
}

// LinearBackward is AddmmBackward0: two GEMMs, dgrad (B,out)x(out,in) and
// wgrad (in,B)x(B,out). Inputs: grad_out (B,out) and the saved input
// activation (B,in).
type LinearBackward struct{}

// Name implements Op.
func (LinearBackward) Name() string { return "AddmmBackward0" }

// AppendOutputs implements Op.
func (LinearBackward) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	assertInputs("AddmmBackward0", inputs, 2)
	// grad wrt input, grad wrt weight.
	gradOut, x := inputs[0], inputs[1]
	return append(dst, x, tensor.New(x.Dim(1), gradOut.Dim(1)))
}

// AppendKernels implements Op.
func (LinearBackward) AppendKernels(dst []kernels.Kernel, inputs []tensor.Meta) []kernels.Kernel {
	gradOut, x := inputs[0], inputs[1]
	b, out, in := gradOut.Dim(0), gradOut.Dim(1), x.Dim(1)
	return append(dst,
		kernels.GEMM{Batch: 1, M: b, N: in, K: out}, // dX = dY @ W^T
		kernels.GEMM{Batch: 1, M: in, N: out, K: b}, // dW = X^T @ dY
	)
}

// BMM is aten::bmm over (B,M,K) x (B,K,N).
type BMM struct{}

// Name implements Op.
func (BMM) Name() string { return "aten::bmm" }

// AppendOutputs implements Op.
func (BMM) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	assertInputs("aten::bmm", inputs, 2)
	a, b := inputs[0], inputs[1]
	return append(dst, tensor.New(a.Dim(0), a.Dim(1), b.Dim(2)))
}

// AppendKernels implements Op.
func (BMM) AppendKernels(dst []kernels.Kernel, inputs []tensor.Meta) []kernels.Kernel {
	a, b := inputs[0], inputs[1]
	return append(dst, kernels.GEMM{Batch: a.Dim(0), M: a.Dim(1), N: b.Dim(2), K: a.Dim(2)})
}

// BMMBackward is BmmBackward0: two batched GEMMs. Inputs: grad_out
// (B,M,N), saved a (B,M,K), saved b (B,K,N).
type BMMBackward struct{}

// Name implements Op.
func (BMMBackward) Name() string { return "BmmBackward0" }

// AppendOutputs implements Op.
func (BMMBackward) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	assertInputs("BmmBackward0", inputs, 3)
	return append(dst, inputs[1], inputs[2])
}

// AppendKernels implements Op.
func (BMMBackward) AppendKernels(dst []kernels.Kernel, inputs []tensor.Meta) []kernels.Kernel {
	g, a, b := inputs[0], inputs[1], inputs[2]
	return append(dst,
		kernels.GEMM{Batch: g.Dim(0), M: a.Dim(1), N: a.Dim(2), K: g.Dim(2)}, // dA = dC @ B^T
		kernels.GEMM{Batch: g.Dim(0), M: b.Dim(1), N: b.Dim(2), K: g.Dim(1)}, // dB = A^T @ dC
	)
}

// --- Optimizer -----------------------------------------------------------------

// OptimizerStep is Optimizer.step: one SGD-update element-wise kernel per
// parameter tensor (the paper predicts the op's kernel-time sum as a
// whole; we keep the individual kernels so T4/T5 counts stay faithful).
type OptimizerStep struct {
	// ParamSizes lists the element count of each parameter tensor.
	ParamSizes []int64
}

// Name implements Op.
func (OptimizerStep) Name() string { return "Optimizer.step" }

// AppendOutputs implements Op.
func (OptimizerStep) AppendOutputs(dst, _ []tensor.Meta) []tensor.Meta { return dst }

// AppendKernels implements Op.
func (o OptimizerStep) AppendKernels(dst []kernels.Kernel, _ []tensor.Meta) []kernels.Kernel {
	for _, n := range o.ParamSizes {
		dst = append(dst, kernels.Elementwise{
			Name: "sgd_step", NElems: n, ReadsPerElem: 8, WritesPerElem: 4, FLOPsPerElem: 2,
		})
	}
	return dst
}

// OptimizerZeroGrad is Optimizer.zero_grad: one fill kernel per parameter
// gradient.
type OptimizerZeroGrad struct {
	ParamSizes []int64
}

// Name implements Op.
func (OptimizerZeroGrad) Name() string { return "Optimizer.zero_grad" }

// AppendOutputs implements Op.
func (OptimizerZeroGrad) AppendOutputs(dst, _ []tensor.Meta) []tensor.Meta { return dst }

// AppendKernels implements Op.
func (o OptimizerZeroGrad) AppendKernels(dst []kernels.Kernel, _ []tensor.Meta) []kernels.Kernel {
	for _, n := range o.ParamSizes {
		dst = append(dst, kernels.Elementwise{
			Name: "zero_", NElems: n, WritesPerElem: 4,
		})
	}
	return dst
}
