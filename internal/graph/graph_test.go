package graph

import (
	"testing"

	"dlrmperf/internal/kernels"
	"dlrmperf/internal/ops"
	"dlrmperf/internal/tensor"
)

// tinyMLP builds in -> linear(32) -> relu -> linear(8).
func tinyMLP(b int64) *Graph {
	g := New()
	x := g.Input(tensor.New(b, 64))
	h := g.Apply(ops.Linear{Out: 32}, x)
	r := g.Apply(ops.ReLU(), h[0])
	g.Apply(ops.Linear{Out: 8}, r[0])
	return g
}

// kernelCount counts the kernels one execution of g launches.
func kernelCount(g *Graph) int {
	n := 0
	for _, node := range g.Nodes {
		n += len(g.NodeKernels(node))
	}
	return n
}

func TestApplyAndMeta(t *testing.T) {
	g := tinyMLP(16)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(g.Nodes))
	}
	last := g.Nodes[2]
	out := g.Meta(last.Outputs[0])
	if out.Dim(0) != 16 || out.Dim(1) != 8 {
		t.Errorf("final output = %v", out)
	}
}

func TestNodeKernels(t *testing.T) {
	g := tinyMLP(16)
	ks := g.NodeKernels(g.Nodes[0])
	if len(ks) != 1 {
		t.Fatalf("linear emitted %d kernels", len(ks))
	}
	gm := ks[0]
	if gm.Kind != kernels.KindGEMM {
		t.Fatalf("linear kernel is %s", gm.Kind)
	}
	if gm.M != 16 || gm.N != 32 || gm.K != 64 {
		t.Errorf("GEMM dims = %+v", gm)
	}
}

func TestResizeBatchPropagates(t *testing.T) {
	v, err := tinyMLP(16).WithBatch(1024)
	if err != nil {
		t.Fatal(err)
	}
	gm := v.NodeKernels(v.Nodes[0])[0]
	if gm.Kind != kernels.KindGEMM || gm.M != 1024 {
		t.Errorf("after resize GEMM M = %d, want 1024", gm.M)
	}
	out := v.Meta(v.Nodes[2].Outputs[0])
	if out.Dim(0) != 1024 {
		t.Errorf("final output batch = %d", out.Dim(0))
	}
	if v.BatchSize() != 1024 {
		t.Errorf("BatchSize = %d", v.BatchSize())
	}
}

// TestWithBatchSharesStructureOwnsShapes: a bound view has the same
// nodes as its origin and its own shape table; the origin's shapes do
// not move, and a graph already at the batch is its own view.
func TestWithBatchSharesStructureOwnsShapes(t *testing.T) {
	g := tinyMLP(16)
	v, err := g.WithBatch(1024)
	if err != nil {
		t.Fatal(err)
	}
	if v == g || len(v.Nodes) != len(g.Nodes) || v.Nodes[0] != g.Nodes[0] {
		t.Fatal("view does not share the origin's nodes")
	}
	if gm := v.NodeKernels(v.Nodes[0])[0]; gm.Kind != kernels.KindGEMM || gm.M != 1024 {
		t.Errorf("view GEMM M = %d, want 1024", gm.M)
	}
	if gm := g.NodeKernels(g.Nodes[0])[0]; gm.Kind != kernels.KindGEMM || gm.M != 16 || g.BatchSize() != 16 {
		t.Errorf("binding a view moved the origin: GEMM M = %d, batch %d", gm.M, g.BatchSize())
	}
	if len(v.shapes) != len(g.shapes) {
		t.Errorf("view has %d tensors, origin %d", len(v.shapes), len(g.shapes))
	}
	if same, err := v.WithBatch(1024); err != nil || same != v {
		t.Errorf("WithBatch at the current batch = %p, %v; want the receiver", same, err)
	}
	// A view binds further views; a clone of one is free to change.
	c := v.Clone()
	c.Apply(ops.ReLU(), c.Nodes[2].Outputs[0])
	if len(v.Nodes) != 3 || len(g.Nodes) != 3 || len(v.shapes) != len(g.shapes) {
		t.Error("editing a clone reached the graphs it was cloned from")
	}
}

func TestDeps(t *testing.T) {
	g := New()
	a := g.Input(tensor.New(4, 8))
	b := g.Input(tensor.New(4, 8))
	s := g.Apply(ops.Add(), a, b)
	g.Apply(ops.ReLU(), s[0])
	relu := g.Nodes[1]
	deps := g.Deps(relu)
	if len(deps) != 1 || deps[0] != g.Nodes[0].ID {
		t.Errorf("deps = %v", deps)
	}
	if len(g.Deps(g.Nodes[0])) != 0 {
		t.Error("input-consuming node should have no node deps")
	}
	if g.Producer(a) != -1 {
		t.Error("graph input should have producer -1")
	}
}

func TestValidateCatchesUseBeforeDef(t *testing.T) {
	g := tinyMLP(8)
	// Swap the first two nodes so relu runs before the linear that feeds it.
	g.Nodes[0], g.Nodes[1] = g.Nodes[1], g.Nodes[0]
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted use-before-def ordering")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := tinyMLP(8)
	c := g.Clone()
	out := c.Apply(ops.Linear{Out: 4}, c.Nodes[2].Outputs[0])
	if len(g.Nodes) != 3 || len(g.shapes) != len(c.shapes)-1 {
		t.Errorf("transforming clone mutated original (%d nodes, %d tensors)", len(g.Nodes), len(g.shapes))
	}
	if m := c.Meta(out[0]); len(c.Nodes) != 4 || m.Dim(0) != 8 || m.Dim(1) != 4 {
		t.Errorf("clone has %d nodes, output %v", len(c.Nodes), m)
	}
}

func TestTotalKernels(t *testing.T) {
	g := tinyMLP(8)
	if got := kernelCount(g); got != 3 {
		t.Errorf("kernel count = %d, want 3", got)
	}
}

func TestReplaceNodesFusesEmbeddingBags(t *testing.T) {
	g := New()
	idx := g.Input(tensor.NewTyped(tensor.Int64, 128, 4, 10))
	var outs []TensorID
	var ids []NodeID
	for i := 0; i < 4; i++ {
		o := g.Apply(ops.EmbeddingBag{Rows: 1000, L: 10, D: 16}, idx)
		ids = append(ids, g.Producer(o[0]))
		outs = append(outs, o[0])
	}
	cat := g.Apply(ops.Concat{Dim: 1}, outs...)
	g.Apply(ops.ReLU(), cat[0]) // downstream consumer

	ids = append(ids, g.Producer(cat[0]))
	fused, err := g.ReplaceNodes(ids, ops.EmbeddingLookup{
		Rows: []int64{1000, 1000, 1000, 1000}, L: 10, D: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// 5 nodes replaced by 1: fused + relu remain.
	if len(g.Nodes) != 2 {
		t.Fatalf("nodes after fusion = %d, want 2", len(g.Nodes))
	}
	if fused.Op.Name() != "LookupFunction" {
		t.Errorf("fused op = %s", fused.Op.Name())
	}
	out := g.Meta(fused.Outputs[0])
	if out.Dim(0) != 128 || out.Dim(1) != 4 || out.Dim(2) != 16 {
		t.Errorf("fused output meta = %v", out)
	}
	// The downstream relu must now depend on the fused node.
	relu := g.Nodes[1]
	deps := g.Deps(relu)
	if len(deps) != 1 || deps[0] != fused.ID {
		t.Errorf("relu deps after fusion = %v", deps)
	}
}

func TestReplaceNodesReducesKernelAndOpCount(t *testing.T) {
	g := New()
	idx := g.Input(tensor.NewTyped(tensor.Int64, 128, 8, 10))
	var outs []TensorID
	var ids []NodeID
	for i := 0; i < 8; i++ {
		o := g.Apply(ops.EmbeddingBag{Rows: 5000, L: 10, D: 16}, idx)
		ids = append(ids, g.Producer(o[0]))
		outs = append(outs, o[0])
	}
	cat := g.Apply(ops.Concat{Dim: 1}, outs...)
	g.Apply(ops.ReLU(), cat[0])
	before := len(g.Nodes)
	ids = append(ids, g.Producer(cat[0]))
	rows := make([]int64, 8)
	for i := range rows {
		rows[i] = 5000
	}
	if _, err := g.ReplaceNodes(ids, ops.EmbeddingLookup{Rows: rows, L: 10, D: 16}); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) >= before {
		t.Errorf("fusion did not shrink graph: %d -> %d", before, len(g.Nodes))
	}
}
