package models

import (
	"dlrmperf/internal/graph"
	"dlrmperf/internal/ops"
	"dlrmperf/internal/tensor"
)

// branchRec is one branch of an Inception block: a sequence of conv units
// whose output channel count is the branch's contribution to the concat.
type branchRec struct {
	recs []convRec
	outC int64
	pool bool // branch starts with an avg-pool (its backward is pointwise)
}

// inceptionBlockRec saves a whole block for backward.
type inceptionBlockRec struct {
	branches []branchRec
}

// branchSpec describes one branch as (K, R, S, stride, pad) conv stages.
type branchSpec struct {
	convs [][5]int64
	pool  bool
}

// inceptionBlock emits a multi-branch block: each branch runs its conv
// chain from the shared input; outputs concatenate along channels.
func (b *cnnBuilder) inceptionBlock(x graph.TensorID, specs []branchSpec) (graph.TensorID, inceptionBlockRec) {
	var outs []graph.TensorID
	var rec inceptionBlockRec
	for _, spec := range specs {
		y := x
		br := branchRec{pool: spec.pool}
		if spec.pool {
			// 3x3 stride-1 average pool preceding the projection conv.
			y = b.g.Apply(ops.Elementwise{
				OpName: "aten::avg_pool2d", ReadsPerElem: 36, WritesPerElem: 4, FLOPsPerElem: 9,
			}, y)[0]
		}
		for _, c := range spec.convs {
			var r convRec
			y, r = b.convBNRelu(y, c[0], c[1], c[2], c[3], c[4], true)
			br.recs = append(br.recs, r)
		}
		br.outC = b.g.Meta(y).Dim(1)
		outs = append(outs, y)
		rec.branches = append(rec.branches, br)
	}
	out := b.g.Apply(ops.Concat{Dim: 1}, outs...)[0]
	return out, rec
}

// inceptionBlockBwd emits the backward pass of a block: slice the
// incoming gradient per branch, run each branch backward, and sum the
// input gradients.
func (b *cnnBuilder) inceptionBlockBwd(grad graph.TensorID, rec inceptionBlockRec) graph.TensorID {
	gm := b.g.Meta(grad)
	var gradIn graph.TensorID
	first := true
	for _, br := range rec.branches {
		// Channel-slice of the concatenated gradient.
		slice := b.g.Apply(ops.Elementwise{
			OpName: "SliceBackward0", ReadsPerElem: 4, WritesPerElem: 4,
		}, b.g.Apply(expandOp{shape: tensor.New(gm.Dim(0), br.outC, gm.Dim(2), gm.Dim(3))}, grad)[0])[0]
		gi := b.seqBwd(slice, br.recs)
		if br.pool {
			gi = b.g.Apply(ops.Elementwise{
				OpName: "AvgPool2DBackward0", ReadsPerElem: 4, WritesPerElem: 4, FLOPsPerElem: 9,
			}, gi)[0]
		}
		if first {
			gradIn = gi
			first = false
		} else {
			gradIn = b.g.Apply(ops.Add(), gradIn, gi)[0]
		}
	}
	return gradIn
}

// BuildInceptionV3 constructs an Inception-V3 training iteration on
// 299x299 inputs. The block inventory follows the published architecture
// (stem, 3x block-A, reduction, 4x block-B with the 1x7/7x1 factorized
// convolutions, reduction, 2x block-C), which matters for Fig. 10: the
// asymmetric filters are exactly where shape-coverage-limited predictors
// fail.
func BuildInceptionV3(batch int64) *Model {
	b := &cnnBuilder{g: graph.New()}
	g := b.g

	imgHost := g.Input(tensor.New(batch, 3, 299, 299))
	x := g.Apply(ops.ToDevice{}, imgHost)[0]

	// Stem.
	var stem []convRec
	var r convRec
	x, r = b.convBNRelu(x, 32, 3, 3, 2, 0, true) // 149x149
	stem = append(stem, r)
	x, r = b.convBNRelu(x, 32, 3, 3, 1, 0, true) // 147x147
	stem = append(stem, r)
	x, r = b.convBNRelu(x, 64, 3, 3, 1, 1, true)
	stem = append(stem, r)
	x = g.Apply(ops.MaxPool2d{Window: 3, Stride: 2}, x)[0] // 73x73
	x, r = b.convBNRelu(x, 80, 1, 1, 1, 0, true)
	stem = append(stem, r)
	x, r = b.convBNRelu(x, 192, 3, 3, 1, 0, true) // 71x71
	stem = append(stem, r)
	x = g.Apply(ops.MaxPool2d{Window: 3, Stride: 2}, x)[0] // 35x35

	var blocks []inceptionBlockRec
	addBlock := func(specs []branchSpec) {
		var rec inceptionBlockRec
		x, rec = b.inceptionBlock(x, specs)
		blocks = append(blocks, rec)
	}

	// 3x Inception-A at 35x35.
	blockA := func(poolProj int64) []branchSpec {
		return []branchSpec{
			{convs: [][5]int64{{64, 1, 1, 1, 0}}},
			{convs: [][5]int64{{48, 1, 1, 1, 0}, {64, 5, 5, 1, 2}}},
			{convs: [][5]int64{{64, 1, 1, 1, 0}, {96, 3, 3, 1, 1}, {96, 3, 3, 1, 1}}},
			{convs: [][5]int64{{poolProj, 1, 1, 1, 0}}, pool: true},
		}
	}
	addBlock(blockA(32))
	addBlock(blockA(64))
	addBlock(blockA(64))

	// Reduction-A to 17x17.
	addBlock([]branchSpec{
		{convs: [][5]int64{{384, 3, 3, 2, 0}}},
		{convs: [][5]int64{{64, 1, 1, 1, 0}, {96, 3, 3, 1, 1}, {96, 3, 3, 2, 0}}},
		{convs: [][5]int64{{288, 3, 3, 2, 0}}}, // stands in for the stride-2 pool branch
	})

	// 4x Inception-B at 17x17 with factorized 1x7/7x1 convolutions.
	blockB := func(c7 int64) []branchSpec {
		return []branchSpec{
			{convs: [][5]int64{{192, 1, 1, 1, 0}}},
			{convs: [][5]int64{{c7, 1, 1, 1, 0}, {c7, 1, 7, 1, 3}, {192, 7, 1, 1, 3}}},
			{convs: [][5]int64{{c7, 1, 1, 1, 0}, {c7, 7, 1, 1, 3}, {c7, 1, 7, 1, 3}, {c7, 7, 1, 1, 3}, {192, 1, 7, 1, 3}}},
			{convs: [][5]int64{{192, 1, 1, 1, 0}}, pool: true},
		}
	}
	addBlock(blockB(128))
	addBlock(blockB(160))
	addBlock(blockB(160))
	addBlock(blockB(192))

	// Reduction-B to 8x8.
	addBlock([]branchSpec{
		{convs: [][5]int64{{192, 1, 1, 1, 0}, {320, 3, 3, 2, 0}}},
		{convs: [][5]int64{{192, 1, 1, 1, 0}, {192, 1, 7, 1, 3}, {192, 7, 1, 1, 3}, {192, 3, 3, 2, 0}}},
		{convs: [][5]int64{{768, 3, 3, 2, 0}}},
	})

	// 2x Inception-C at 8x8.
	blockC := []branchSpec{
		{convs: [][5]int64{{320, 1, 1, 1, 0}}},
		{convs: [][5]int64{{384, 1, 1, 1, 0}, {384, 1, 3, 1, 1}}},
		{convs: [][5]int64{{448, 1, 1, 1, 0}, {384, 3, 3, 1, 1}, {384, 3, 1, 1, 1}}},
		{convs: [][5]int64{{192, 1, 1, 1, 0}}, pool: true},
	}
	addBlock(blockC)
	addBlock(blockC)

	grad := b.classifierHead(x, 1000)

	for i := len(blocks) - 1; i >= 0; i-- {
		grad = b.inceptionBlockBwd(grad, blocks[i])
	}
	grad = g.Apply(ops.Elementwise{
		OpName: "MaxPool2DWithIndicesBackward0", ReadsPerElem: 8, WritesPerElem: 16,
	}, grad)[0]
	grad = b.seqBwd(grad, stem[3:])
	grad = g.Apply(ops.Elementwise{
		OpName: "MaxPool2DWithIndicesBackward0", ReadsPerElem: 8, WritesPerElem: 16,
	}, grad)[0]
	b.seqBwd(grad, stem[:3])

	return b.finish(NameInceptionV3)
}
