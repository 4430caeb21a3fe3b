package ops

import (
	"testing"

	"dlrmperf/internal/kernels"
	"dlrmperf/internal/tensor"
)

func TestLinearShapesAndKernel(t *testing.T) {
	l := Linear{Out: 256}
	in := []tensor.Meta{tensor.New(128, 512)}
	out := l.AppendOutputs(nil, in)
	if out[0].Dim(0) != 128 || out[0].Dim(1) != 256 {
		t.Errorf("linear out = %v", out[0])
	}
	g := l.AppendKernels(nil, in)[0].(kernels.GEMM)
	if g.M != 128 || g.N != 256 || g.K != 512 {
		t.Errorf("gemm = %+v", g)
	}
}

func TestLinearBackwardTwoGEMMs(t *testing.T) {
	lb := LinearBackward{}
	in := []tensor.Meta{tensor.New(128, 256), tensor.New(128, 512)}
	outs := lb.AppendOutputs(nil, in)
	if outs[0].String() != tensor.New(128, 512).String() {
		t.Errorf("dX meta = %v", outs[0])
	}
	if outs[1].String() != tensor.New(512, 256).String() {
		t.Errorf("dW meta = %v", outs[1])
	}
	ks := lb.AppendKernels(nil, in)
	if len(ks) != 2 {
		t.Fatalf("AddmmBackward0 kernels = %d, want 2", len(ks))
	}
	dgrad := ks[0].(kernels.GEMM)
	wgrad := ks[1].(kernels.GEMM)
	if dgrad.M != 128 || dgrad.N != 512 || dgrad.K != 256 {
		t.Errorf("dgrad = %+v", dgrad)
	}
	if wgrad.M != 512 || wgrad.N != 256 || wgrad.K != 128 {
		t.Errorf("wgrad = %+v", wgrad)
	}
	// Forward and backward GEMMs share one kernel kind — the sharing the
	// paper exploits to reuse one performance model.
	if dgrad.Kind() != (kernels.GEMM{}).Kind() {
		t.Error("backward GEMM has different kind")
	}
}

func TestBMMShapes(t *testing.T) {
	in := []tensor.Meta{tensor.New(64, 9, 32), tensor.New(64, 32, 9)}
	out := BMM{}.AppendOutputs(nil, in)[0]
	if out.String() != tensor.New(64, 9, 9).String() {
		t.Errorf("bmm out = %v", out)
	}
	g := BMM{}.AppendKernels(nil, in)[0].(kernels.GEMM)
	if g.Batch != 64 || g.M != 9 || g.N != 9 || g.K != 32 {
		t.Errorf("bmm gemm = %+v", g)
	}
	bk := BMMBackward{}.AppendKernels(nil, []tensor.Meta{out, in[0], in[1]})
	if len(bk) != 2 {
		t.Fatalf("BmmBackward0 kernels = %d", len(bk))
	}
}

func TestConcatOutputs(t *testing.T) {
	in := []tensor.Meta{tensor.New(8, 1, 16), tensor.New(8, 4, 16)}
	out := Concat{Dim: 1}.AppendOutputs(nil, in)[0]
	if out.String() != tensor.New(8, 5, 16).String() {
		t.Errorf("cat out = %v", out)
	}
	k := Concat{Dim: 1}.AppendKernels(nil, in)[0].(kernels.Concat)
	if k.OutBytes != out.Bytes() || k.NInputs != 2 {
		t.Errorf("cat kernel = %+v", k)
	}
}

func TestEmbeddingLookupAvgRows(t *testing.T) {
	e := EmbeddingLookup{Rows: []int64{100, 200, 300}, L: 4, D: 8}
	if e.AvgRows() != 200 {
		t.Errorf("AvgRows = %d", e.AvgRows())
	}
	if e.T() != 3 {
		t.Errorf("T = %d", e.T())
	}
	in := []tensor.Meta{tensor.NewTyped(tensor.Int64, 64, 3, 4)}
	out := e.AppendOutputs(nil, in)[0]
	if out.String() != tensor.New(64, 3, 8).String() {
		t.Errorf("lookup out = %v", out)
	}
	k := e.AppendKernels(nil, in)[0].(kernels.Embedding)
	if k.B != 64 || k.E != 200 || k.T != 3 || k.L != 4 || k.D != 8 {
		t.Errorf("kernel = %+v", k)
	}
}

func TestEmbeddingVaryingTablesPerturbGroundTruth(t *testing.T) {
	uniform := EmbeddingLookup{Rows: []int64{1000, 1000}, L: 2, D: 8}
	mixed := EmbeddingLookup{Rows: []int64{10, 1990}, L: 2, D: 8}
	in := []tensor.Meta{tensor.NewTyped(tensor.Int64, 64, 2, 2)}
	ku := uniform.AppendKernels(nil, in)[0].(kernels.Embedding)
	km := mixed.AppendKernels(nil, in)[0].(kernels.Embedding)
	if ku.E != km.E {
		t.Fatal("test requires equal average rows")
	}
	if ku.ZipfSkew == km.ZipfSkew {
		t.Error("mixed table sizes should perturb the ground-truth locality knob")
	}
}

func TestTrilShapes(t *testing.T) {
	in := []tensor.Meta{tensor.New(32, 9, 9)}
	out := TrilIndex{}.AppendOutputs(nil, in)[0]
	if out.String() != tensor.New(32, 36).String() {
		t.Errorf("tril out = %v", out)
	}
	b := TrilIndexBackward{F: 9}
	back := b.AppendOutputs(nil, []tensor.Meta{out})[0]
	if back.String() != tensor.New(32, 9, 9).String() {
		t.Errorf("tril backward out = %v", back)
	}
	k := b.AppendKernels(nil, []tensor.Meta{out})[0].(kernels.Tril)
	if !k.Backward || k.F != 9 {
		t.Errorf("tril bwd kernel = %+v", k)
	}
}

func TestViewInference(t *testing.T) {
	v := View{NewShape: []int64{-1, 4, 8}}
	out := v.AppendOutputs(nil, []tensor.Meta{tensor.New(16, 32)})[0]
	if out.String() != tensor.New(16, 4, 8).String() {
		t.Errorf("view out = %v", out)
	}
	if len(v.AppendKernels(nil, nil)) != 0 {
		t.Error("view must be host-only")
	}
	flat := View{}.AppendOutputs(nil, []tensor.Meta{tensor.New(8, 2, 3)})[0]
	if flat.String() != tensor.New(8, 6).String() {
		t.Errorf("default flatten = %v", flat)
	}
}

func TestOptimizerKernelsPerParam(t *testing.T) {
	o := OptimizerStep{ParamSizes: []int64{100, 200, 300}}
	ks := o.AppendKernels(nil, nil)
	if len(ks) != 3 {
		t.Fatalf("step kernels = %d", len(ks))
	}
	z := OptimizerZeroGrad{ParamSizes: []int64{100, 200}}
	if len(z.AppendKernels(nil, nil)) != 2 {
		t.Fatal("zero_grad kernel count wrong")
	}
}

func TestToDeviceIsH2D(t *testing.T) {
	k := ToDevice{}.AppendKernels(nil, []tensor.Meta{tensor.New(2048, 512)})[0].(kernels.Memcpy)
	if k.Dir != kernels.H2D {
		t.Error("aten::to should be H2D")
	}
	if k.NBytes != 2048*512*4 {
		t.Errorf("bytes = %d", k.NBytes)
	}
}

func TestConv2dShapes(t *testing.T) {
	c := Conv2d{K: 64, R: 7, S: 7, Stride: 2, Pad: 3}
	out := c.AppendOutputs(nil, []tensor.Meta{tensor.New(32, 3, 224, 224)})[0]
	if out.String() != tensor.New(32, 64, 112, 112).String() {
		t.Errorf("conv out = %v", out)
	}
	bk := Conv2dBackward{K: 64, R: 7, S: 7, Stride: 2, Pad: 3}
	ks := bk.AppendKernels(nil, []tensor.Meta{out, tensor.New(32, 3, 224, 224)})
	if len(ks) != 2 {
		t.Errorf("conv backward kernels = %d, want 2", len(ks))
	}
}

func TestElementwiseScalarOutput(t *testing.T) {
	loss := MSELoss()
	out := loss.AppendOutputs(nil, []tensor.Meta{tensor.New(128, 1), tensor.New(128, 1)})[0]
	if out.Rank() != 0 {
		t.Errorf("loss output rank = %d", out.Rank())
	}
}

func TestOpNamesMatchPaperTraces(t *testing.T) {
	want := map[string]Op{
		"aten::relu":             ReLU(),
		"ReluBackward0":          ReLUBackward(),
		"aten::linear":           Linear{Out: 1},
		"AddmmBackward0":         LinearBackward{},
		"aten::bmm":              BMM{},
		"BmmBackward0":           BMMBackward{},
		"aten::cat":              Concat{},
		"aten::to":               ToDevice{},
		"aten::index":            TrilIndex{},
		"IndexBackward0":         TrilIndexBackward{},
		"aten::mse_loss":         MSELoss(),
		"MseLossBackward0":       MSELossBackward(),
		"Optimizer.step":         OptimizerStep{},
		"Optimizer.zero_grad":    OptimizerZeroGrad{},
		"LookupFunction":         EmbeddingLookup{},
		"LookupFunctionBackward": EmbeddingLookup{Backward: true},
		"AccumulateGrad":         AccumulateGrad(),
		"SliceBackward0":         SliceBackward{},
	}
	for name, op := range want {
		if op.Name() != name {
			t.Errorf("op name %q != %q", op.Name(), name)
		}
	}
}

func TestAssertInputsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity did not panic")
		}
	}()
	Linear{Out: 4}.AppendOutputs(nil, []tensor.Meta{tensor.New(2, 2), tensor.New(2, 2)})
}
