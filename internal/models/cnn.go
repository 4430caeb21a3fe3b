package models

import (
	"dlrmperf/internal/graph"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/ops"
	"dlrmperf/internal/tensor"
)

// cnnBuilder accumulates the forward graph of a CNN and the bookkeeping
// needed to emit a faithful backward pass (ConvolutionBackward0 /
// NativeBatchNormBackward0 / ReluBackward0 mirrors plus AccumulateGrad
// nodes) and the optimizer parameter census.
type cnnBuilder struct {
	g      *graph.Graph
	params []int64
}

// convRec saves what a conv+bn(+relu) unit needs for its backward ops.
type convRec struct {
	x           graph.TensorID // conv input activation
	k, r, s     int64
	stride, pad int64
	relu        bool
}

// convBNRelu emits conv2d -> batch_norm (-> relu) and returns the output
// tensor plus the backward record.
func (b *cnnBuilder) convBNRelu(x graph.TensorID, k, r, s, stride, pad int64, relu bool) (graph.TensorID, convRec) {
	rec := convRec{x: x, k: k, r: r, s: s, stride: stride, pad: pad, relu: relu}
	inC := b.g.Meta(x).Dim(1)
	y := b.g.Apply(ops.Conv2d{K: k, R: r, S: s, Stride: stride, Pad: pad}, x)[0]
	y = b.g.Apply(ops.BatchNorm2d{}, y)[0]
	if relu {
		y = b.g.Apply(ops.ReLU(), y)[0]
	}
	b.params = append(b.params, k*inC*r*s, 2*k) // conv weight, bn gamma+beta
	return y, rec
}

// convBNBwd emits the backward ops of one convBNRelu unit and returns the
// gradient with respect to its input.
func (b *cnnBuilder) convBNBwd(grad graph.TensorID, rec convRec) graph.TensorID {
	if rec.relu {
		grad = b.g.Apply(ops.ReLUBackward(), grad)[0]
	}
	grad = b.g.Apply(ops.BatchNorm2dBackward{}, grad)[0]
	outs := b.g.Apply(ops.Conv2dBackward{K: rec.k, R: rec.r, S: rec.s, Stride: rec.stride, Pad: rec.pad},
		grad, rec.x)
	b.g.Apply(ops.AccumulateGrad(), outs[1])
	return outs[0]
}

// seqBwd plays a slice of convRecs backward in reverse order.
func (b *cnnBuilder) seqBwd(grad graph.TensorID, recs []convRec) graph.TensorID {
	for i := len(recs) - 1; i >= 0; i-- {
		grad = b.convBNBwd(grad, recs[i])
	}
	return grad
}

// classifierHead emits global average pooling, the fully connected layer,
// and cross-entropy loss; it returns the gradient flowing back into the
// pooled features, ready for the backbone backward pass.
func (b *cnnBuilder) classifierHead(feat graph.TensorID, classes int64) graph.TensorID {
	pooled := b.g.Apply(ops.AdaptiveAvgPool2d{}, feat)[0]
	flat := b.g.Apply(ops.View{}, pooled)[0]
	inDim := b.g.Meta(flat).Dim(1)
	logits := b.g.Apply(ops.Linear{Out: classes}, flat)[0]
	b.params = append(b.params, inDim*classes, classes)
	b.g.Apply(ops.CrossEntropyLoss{}, logits)

	// Backward: loss -> fc -> un-pool.
	grad := b.g.Apply(ops.CrossEntropyBackward{}, logits)[0]
	outs := b.g.Apply(ops.LinearBackward{}, grad, flat)
	b.g.Apply(ops.AccumulateGrad(), outs[1])
	gradFlat := outs[0]
	// Average-pool backward broadcasts the gradient over HxW: a zero-copy
	// aten::expand (host-only) followed by the scaling kernel.
	featMeta := b.g.Meta(feat)
	expanded := b.g.Apply(expandOp{shape: featMeta}, gradFlat)[0]
	gradFeat := b.g.Apply(ops.Elementwise{
		OpName: "AvgPoolBackward0", ReadsPerElem: 4, WritesPerElem: 4, FLOPsPerElem: 1,
	}, expanded)[0]
	return gradFeat
}

// expandOp is aten::expand: metadata-only, no kernels. The batch
// dimension of shape is a placeholder and its dtype is ignored: both
// follow the input, so the op holds under batch resizing.
type expandOp struct{ shape tensor.Meta }

func (expandOp) Name() string { return "aten::expand" }

func (e expandOp) AppendOutputs(dst, inputs []tensor.Meta) []tensor.Meta {
	out := e.shape.WithBatch(inputs[0].Dim(0))
	out.DType = inputs[0].DType
	return append(dst, out)
}

func (expandOp) AppendKernels(dst []kernels.Kernel, _ []tensor.Meta) []kernels.Kernel { return dst }

// finish appends the optimizer ops and wraps the graph into a Model.
func (b *cnnBuilder) finish(name string) *Model {
	b.g.Apply(ops.OptimizerZeroGrad{ParamSizes: b.params})
	b.g.Apply(ops.OptimizerStep{ParamSizes: b.params})
	return &Model{Name: name, Graph: b.g, Params: sum(b.params)}
}
