package models

import (
	"dlrmperf/internal/graph"
	"dlrmperf/internal/ops"
	"dlrmperf/internal/tensor"
)

// TransformerConfig sizes the encoder used for Fig. 1's utilization
// comparison: a standard base encoder (d=512, 6 layers, 8 heads,
// FFN 2048) over sequences of length Seq.
type TransformerConfig struct {
	Batch  int64
	Seq    int64
	Model  int64 // d_model
	Heads  int64
	FFN    int64
	Layers int
	Vocab  int64
}

// DefaultTransformerConfig returns the base encoder configuration.
func DefaultTransformerConfig(batch int64) TransformerConfig {
	return TransformerConfig{
		Batch: batch, Seq: 64, Model: 512, Heads: 8, FFN: 2048, Layers: 6, Vocab: 32000,
	}
}

// BuildTransformer constructs one training iteration of the encoder with
// a token-prediction head (the compute profile of the paper's
// "Transformer" bar in Fig. 1: almost entirely large GEMMs).
func BuildTransformer(batch int64) *Model {
	cfg := DefaultTransformerConfig(batch)
	b := cfg.Batch
	s, d, h := cfg.Seq, cfg.Model, cfg.Heads
	dh := d / h
	g := graph.New()
	var params []int64

	tokHost := g.Input(tensor.NewTyped(tensor.Int64, b, s, 1))
	labelHost := g.Input(tensor.NewTyped(tensor.Int64, b, s, 1))
	tok := g.Apply(ops.ToDevice{}, tokHost)[0]
	g.Apply(ops.ToDevice{}, labelHost)

	// Token embedding: one row gathered per position. The lookup op's
	// batch dimension carries B*S so that every position fetches a row.
	vocabRows := []int64{cfg.Vocab}
	tokFlat := g.Apply(ops.View{NewShape: []int64{-1, 1, 1}}, tok)[0]
	emb := g.Apply(ops.EmbeddingLookup{Rows: vocabRows, L: 1, D: d}, tokFlat)[0] // (B*S, 1, D)
	x := g.Apply(ops.View{NewShape: []int64{-1, d}}, emb)[0]

	type layerRec struct {
		qkvIn, attnIn, ffnIn graph.TensorID
		q, k, v              graph.TensorID
		probs                graph.TensorID
		ffnHidden            graph.TensorID
	}
	var recs []layerRec

	linear := func(x graph.TensorID, out int64) graph.TensorID {
		in := g.Meta(x).Dim(1)
		params = append(params, in*out, out)
		return g.Apply(ops.Linear{Out: out}, x)[0]
	}

	for i := 0; i < cfg.Layers; i++ {
		var rec layerRec
		rec.qkvIn = x
		// Self-attention.
		q := linear(x, d)
		k := linear(x, d)
		v := linear(x, d)
		rec.q, rec.k, rec.v = q, k, v
		qh := g.Apply(ops.View{NewShape: []int64{-1, s, dh}}, q)[0]
		kh := g.Apply(ops.View{NewShape: []int64{-1, s, dh}}, k)[0]
		vh := g.Apply(ops.View{NewShape: []int64{-1, s, dh}}, v)[0]
		khT := g.Apply(ops.TransposeOp{}, kh)[0] // (BH, dh, S)
		scores := g.Apply(ops.BMM{}, qh, khT)[0] // (BH, S, S)
		probs := g.Apply(ops.Softmax(), scores)[0]
		rec.probs = probs
		ctx := g.Apply(ops.BMM{}, probs, vh)[0] // (BH, S, dh)
		ctxFlat := g.Apply(ops.View{NewShape: []int64{-1, d}}, ctx)[0]
		rec.attnIn = ctxFlat
		proj := linear(ctxFlat, d)
		res1 := g.Apply(ops.Add(), x, proj)[0]
		norm1 := g.Apply(ops.LayerNorm(), res1)[0]

		// FFN.
		rec.ffnIn = norm1
		hdn := linear(norm1, cfg.FFN)
		hdn = g.Apply(ops.ReLU(), hdn)[0]
		rec.ffnHidden = hdn
		out := linear(hdn, d)
		res2 := g.Apply(ops.Add(), norm1, out)[0]
		x = g.Apply(ops.LayerNorm(), res2)[0]
		recs = append(recs, rec)
	}

	// Head + loss.
	logits := linear(x, cfg.Vocab)
	g.Apply(ops.CrossEntropyLoss{}, logits)
	grad := g.Apply(ops.CrossEntropyBackward{}, logits)[0]
	outs := g.Apply(ops.LinearBackward{}, grad, x)
	g.Apply(ops.AccumulateGrad(), outs[1])
	grad = outs[0]

	// Backward through layers.
	linBwd := func(grad, saved graph.TensorID) graph.TensorID {
		o := g.Apply(ops.LinearBackward{}, grad, saved)
		g.Apply(ops.AccumulateGrad(), o[1])
		return o[0]
	}
	for i := len(recs) - 1; i >= 0; i-- {
		rec := recs[i]
		// FFN backward.
		grad = g.Apply(ops.LayerNormBackward(), grad)[0]
		gFFNOut := linBwd(grad, rec.ffnHidden)
		gFFNOut = g.Apply(ops.ReLUBackward(), gFFNOut)[0]
		gFFNIn := linBwd(gFFNOut, rec.ffnIn)
		grad = g.Apply(ops.Add(), grad, gFFNIn)[0] // residual join

		// Attention backward.
		grad = g.Apply(ops.LayerNormBackward(), grad)[0]
		gProj := linBwd(grad, rec.attnIn)
		gCtx := g.Apply(ops.View{NewShape: []int64{-1, s, dh}}, gProj)[0]
		vh := g.Apply(ops.View{NewShape: []int64{-1, s, dh}}, rec.v)[0]
		qh := g.Apply(ops.View{NewShape: []int64{-1, s, dh}}, rec.q)[0]
		kh := g.Apply(ops.View{NewShape: []int64{-1, s, dh}}, rec.k)[0]
		bmm2 := g.Apply(ops.BMMBackward{}, gCtx, rec.probs, vh)
		gProbs := bmm2[0]
		gV := bmm2[1]
		gScores := g.Apply(ops.SoftmaxBackward(), gProbs)[0]
		khT := g.Apply(ops.TransposeOp{}, kh)[0]
		bmm1 := g.Apply(ops.BMMBackward{}, gScores, qh, khT)
		gQ := bmm1[0]
		gKT := g.Apply(ops.TBackward{}, bmm1[1])[0]
		gQf := g.Apply(ops.View{NewShape: []int64{-1, d}}, gQ)[0]
		gKf := g.Apply(ops.View{NewShape: []int64{-1, d}}, gKT)[0]
		gVf := g.Apply(ops.View{NewShape: []int64{-1, d}}, gV)[0]
		gIn := linBwd(gQf, rec.qkvIn)
		gIn = g.Apply(ops.Add(), gIn, linBwd(gKf, rec.qkvIn))[0]
		gIn = g.Apply(ops.Add(), gIn, linBwd(gVf, rec.qkvIn))[0]
		grad = g.Apply(ops.Add(), grad, gIn)[0] // residual join
	}

	// Embedding backward (sparse update).
	gradEmb := g.Apply(ops.View{NewShape: []int64{-1, 1, d}}, grad)[0]
	g.Apply(ops.EmbeddingLookup{Rows: vocabRows, L: 1, D: d, Backward: true}, tokFlat, gradEmb)

	g.Apply(ops.OptimizerZeroGrad{ParamSizes: params})
	g.Apply(ops.OptimizerStep{ParamSizes: params})
	return &Model{Name: NameTransformer, Graph: g, Params: sum(params)}
}
