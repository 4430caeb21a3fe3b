package ops

import (
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/tensor"
)

// Conv2d is aten::conv2d over NCHW input.
type Conv2d struct {
	K, R, S     int64
	Stride, Pad int64
}

// Name implements Op.
func (Conv2d) Name() string { return "aten::conv2d" }

func (c Conv2d) kernel(in tensor.Meta) kernels.Conv {
	// "Same"-style padding never exceeds half the filter extent on each
	// axis, so asymmetric filters are padded only along their long axis.
	return kernels.Conv{
		N: in.Dim(0), C: in.Dim(1), H: in.Dim(2), W: in.Dim(3),
		K: c.K, R: c.R, S: c.S, Stride: c.Stride,
		PadH: capPad(c.Pad, c.R), PadW: capPad(c.Pad, c.S),
	}
}

func capPad(pad, filter int64) int64 {
	if m := (filter - 1) / 2; pad > m {
		return m
	}
	return pad
}

// AppendOutputs implements Op.
func (c Conv2d) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	assertInputs("aten::conv2d", inputs, 1)
	k := c.kernel(inputs[0])
	p, q := k.OutHW()
	return append(dst, tensor.New(inputs[0].Dim(0), c.K, p, q))
}

// AppendKernels implements Op.
func (c Conv2d) AppendKernels(dst []kernels.Kernel, inputs []tensor.Meta) []kernels.Kernel {
	return append(dst, c.kernel(inputs[0]))
}

// Conv2dBackward is ConvolutionBackward0: data-gradient and
// weight-gradient convolutions. Inputs: grad_out (N,K,P,Q) and the saved
// input (N,C,H,W).
type Conv2dBackward struct {
	K, R, S     int64
	Stride, Pad int64
}

// Name implements Op.
func (Conv2dBackward) Name() string { return "ConvolutionBackward0" }

// AppendOutputs implements Op.
func (c Conv2dBackward) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	assertInputs("ConvolutionBackward0", inputs, 2)
	x := inputs[1]
	return append(dst, x, tensor.New(c.K, x.Dim(1), c.R, c.S))
}

// AppendKernels implements Op.
func (c Conv2dBackward) AppendKernels(dst []kernels.Kernel, inputs []tensor.Meta) []kernels.Kernel {
	x := inputs[1]
	fwd := kernels.Conv{
		N: x.Dim(0), C: x.Dim(1), H: x.Dim(2), W: x.Dim(3),
		K: c.K, R: c.R, S: c.S, Stride: c.Stride,
		PadH: capPad(c.Pad, c.R), PadW: capPad(c.Pad, c.S),
	}
	// dgrad and wgrad each move roughly the forward conv's work; model
	// them as two convolutions of the same shape (the standard 3x
	// training-cost rule of thumb).
	return append(dst, fwd, fwd)
}

// BatchNorm2d is aten::batch_norm over NCHW.
type BatchNorm2d struct{}

// Name implements Op.
func (BatchNorm2d) Name() string { return "aten::batch_norm" }

// AppendOutputs implements Op.
func (BatchNorm2d) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	assertInputs("aten::batch_norm", inputs, 1)
	return append(dst, inputs[0])
}

// AppendKernels implements Op.
func (BatchNorm2d) AppendKernels(dst []kernels.Kernel, inputs []tensor.Meta) []kernels.Kernel {
	in := inputs[0]
	return append(dst, kernels.BatchNorm{N: in.Dim(0), C: in.Dim(1), H: in.Dim(2), W: in.Dim(3)})
}

// BatchNorm2dBackward is NativeBatchNormBackward0.
type BatchNorm2dBackward struct{}

// Name implements Op.
func (BatchNorm2dBackward) Name() string { return "NativeBatchNormBackward0" }

// AppendOutputs implements Op.
func (BatchNorm2dBackward) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	assertInputs("NativeBatchNormBackward0", inputs, 1)
	return append(dst, inputs[0])
}

// AppendKernels implements Op.
func (BatchNorm2dBackward) AppendKernels(dst []kernels.Kernel, inputs []tensor.Meta) []kernels.Kernel {
	in := inputs[0]
	k := kernels.BatchNorm{N: in.Dim(0), C: in.Dim(1), H: in.Dim(2), W: in.Dim(3)}
	// Backward needs the same two-pass structure twice (dgamma/dbeta
	// reduction, then dx).
	return append(dst, k, k)
}

// MaxPool2d is aten::max_pool2d with a square window.
type MaxPool2d struct{ Window, Stride int64 }

// Name implements Op.
func (MaxPool2d) Name() string { return "aten::max_pool2d" }

// AppendOutputs implements Op.
func (m MaxPool2d) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	p, q := m.outHW(inputs)
	return append(dst, tensor.New(inputs[0].Dim(0), inputs[0].Dim(1), p, q))
}

// AppendKernels implements Op.
func (m MaxPool2d) AppendKernels(dst []kernels.Kernel, inputs []tensor.Meta) []kernels.Kernel {
	p, q := m.outHW(inputs)
	w := float64(m.Window * m.Window)
	return append(dst, kernels.Elementwise{
		Name: "max_pool2d", NElems: inputs[0].Dim(0) * inputs[0].Dim(1) * p * q,
		ReadsPerElem: 4 * w, WritesPerElem: 4, FLOPsPerElem: w,
	})
}

// outHW returns the pooled spatial dimensions.
func (m MaxPool2d) outHW(inputs []tensor.Meta) (p, q int64) {
	assertInputs("aten::max_pool2d", inputs, 1)
	in := inputs[0]
	return (in.Dim(2)-m.Window)/m.Stride + 1, (in.Dim(3)-m.Window)/m.Stride + 1
}

// AdaptiveAvgPool2d reduces spatial dims to 1x1 (aten::adaptive_avg_pool2d).
type AdaptiveAvgPool2d struct{}

// Name implements Op.
func (AdaptiveAvgPool2d) Name() string { return "aten::adaptive_avg_pool2d" }

// AppendOutputs implements Op.
func (AdaptiveAvgPool2d) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	assertInputs("aten::adaptive_avg_pool2d", inputs, 1)
	in := inputs[0]
	return append(dst, tensor.New(in.Dim(0), in.Dim(1), 1, 1))
}

// AppendKernels implements Op.
func (AdaptiveAvgPool2d) AppendKernels(dst []kernels.Kernel, inputs []tensor.Meta) []kernels.Kernel {
	in := inputs[0]
	hw := float64(in.Dim(2) * in.Dim(3))
	return append(dst, kernels.Elementwise{
		Name: "avg_pool", NElems: in.Dim(0) * in.Dim(1),
		ReadsPerElem: 4 * hw, WritesPerElem: 4, FLOPsPerElem: hw,
	})
}

// CrossEntropyLoss is aten::cross_entropy_loss over (B, classes).
type CrossEntropyLoss struct{}

// Name implements Op.
func (CrossEntropyLoss) Name() string { return "aten::cross_entropy_loss" }

// AppendOutputs implements Op.
func (CrossEntropyLoss) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	assertInputs("aten::cross_entropy_loss", inputs, 1)
	return append(dst, tensor.New())
}

// AppendKernels implements Op.
func (CrossEntropyLoss) AppendKernels(dst []kernels.Kernel, inputs []tensor.Meta) []kernels.Kernel {
	return append(dst, kernels.Elementwise{
		Name: "cross_entropy", NElems: inputs[0].Numel(),
		ReadsPerElem: 8, WritesPerElem: 0.1, FLOPsPerElem: 8,
	})
}

// CrossEntropyBackward is NllLossBackward0 fused with softmax backward.
type CrossEntropyBackward struct{}

// Name implements Op.
func (CrossEntropyBackward) Name() string { return "NllLossBackward0" }

// AppendOutputs implements Op.
func (CrossEntropyBackward) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	assertInputs("NllLossBackward0", inputs, 1)
	return append(dst, inputs[0])
}

// AppendKernels implements Op.
func (CrossEntropyBackward) AppendKernels(dst []kernels.Kernel, inputs []tensor.Meta) []kernels.Kernel {
	return append(dst, kernels.Elementwise{
		Name: "nll_backward", NElems: inputs[0].Numel(),
		ReadsPerElem: 8, WritesPerElem: 4, FLOPsPerElem: 4,
	})
}
