package graph

import (
	"bytes"
	"encoding/json"
	"slices"
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
	gm, ok := ks[0].(kernels.GEMM)
	if !ok {
		t.Fatalf("linear kernel is %T", ks[0])
	}
	if gm.M != 16 || gm.N != 32 || gm.K != 64 {
		t.Errorf("GEMM dims = %+v", gm)
	}
}

func TestResizeBatchPropagates(t *testing.T) {
	g := tinyMLP(16)
	if err := g.ResizeBatch(1024); err != nil {
		t.Fatal(err)
	}
	gm := g.NodeKernels(g.Nodes[0])[0].(kernels.GEMM)
	if gm.M != 1024 {
		t.Errorf("after resize GEMM M = %d, want 1024", gm.M)
	}
	out := g.Meta(g.Nodes[2].Outputs[0])
	if out.Dim(0) != 1024 {
		t.Errorf("final output batch = %d", out.Dim(0))
	}
	if g.BatchSize() != 1024 {
		t.Errorf("BatchSize = %d", g.BatchSize())
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
	if gm := v.NodeKernels(v.Nodes[0])[0].(kernels.GEMM); gm.M != 1024 {
		t.Errorf("view GEMM M = %d, want 1024", gm.M)
	}
	if gm := g.NodeKernels(g.Nodes[0])[0].(kernels.GEMM); gm.M != 16 || g.BatchSize() != 16 {
		t.Errorf("binding a view moved the origin: GEMM M = %d, batch %d", gm.M, g.BatchSize())
	}
	if v.Tensors() != g.Tensors() {
		t.Errorf("view has %d tensors, origin %d", v.Tensors(), g.Tensors())
	}
	if same, err := v.WithBatch(1024); err != nil || same != v {
		t.Errorf("WithBatch at the current batch = %p, %v; want the receiver", same, err)
	}
	// A view binds further views; a clone of one is free to change.
	c := v.Clone()
	c.Apply(ops.ReLU(), c.Nodes[2].Outputs[0])
	if len(v.Nodes) != 3 || len(g.Nodes) != 3 || v.Tensors() != g.Tensors() {
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
	if err := c.ResizeBatch(256); err != nil {
		t.Fatal(err)
	}
	if g.BatchSize() != 8 {
		t.Errorf("resizing clone mutated original (batch=%d)", g.BatchSize())
	}
	if c.BatchSize() != 256 {
		t.Errorf("clone batch = %d", c.BatchSize())
	}
}

func TestTotalKernels(t *testing.T) {
	g := tinyMLP(8)
	if got := g.TotalKernels(); got != 3 {
		t.Errorf("TotalKernels = %d, want 3", got)
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

func TestRemoveNode(t *testing.T) {
	g := tinyMLP(8)
	last := g.Nodes[2]
	if err := g.RemoveNode(last.ID); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 2 {
		t.Fatalf("nodes = %d", len(g.Nodes))
	}
	// Removing a node with consumers must fail.
	if err := g.RemoveNode(g.Nodes[0].ID); err == nil {
		t.Fatal("RemoveNode allowed removing a consumed node")
	}
}

func TestAssignStreams(t *testing.T) {
	g := New()
	a := g.Input(tensor.New(4, 8))
	r1 := g.Apply(ops.ReLU(), a)
	r2 := g.Apply(ops.Sigmoid(), a)
	g.Apply(ops.Add(), r1[0], r2[0])
	n := g.AssignStreams()
	if n < 2 {
		t.Fatalf("expected at least 2 streams for parallel branches, got %d", n)
	}
	if g.Nodes[0].Stream == g.Nodes[1].Stream {
		t.Error("independent branches share a stream")
	}
	// The join lands on one of its dependencies' streams.
	join := g.Nodes[2]
	if join.Stream != g.Nodes[0].Stream && join.Stream != g.Nodes[1].Stream {
		t.Error("join node on unrelated stream")
	}
}

// TestExportDecodeRoundTrip decodes the export form (the bytes
// Workload.ExportGraph writes) back into an Export and checks it
// against the graph: each node's identity, kernels and deps.
func TestExportDecodeRoundTrip(t *testing.T) {
	g := tinyMLP(32)
	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var e Export
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if len(e.Nodes) != len(g.Nodes) {
		t.Fatalf("exported %d nodes, want %d", len(e.Nodes), len(g.Nodes))
	}
	for i, en := range e.Nodes {
		n := g.Nodes[i]
		if en.ID != int(n.ID) || en.Name != n.Op.Name() {
			t.Errorf("node %d exported as %d %q, want %d %q", i, en.ID, en.Name, n.ID, n.Op.Name())
		}
		want := g.NodeKernels(n)
		if len(en.Kernels) != len(want) {
			t.Errorf("node %d kernels %d != %d", i, len(en.Kernels), len(want))
			continue
		}
		for j, k := range want {
			raw, err := kernels.MarshalKernel(k)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := json.Compact(&got, en.Kernels[j]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), raw) {
				t.Errorf("node %d kernel %d: %s != %s", i, j, got.Bytes(), raw)
			}
		}
		var deps []int
		for _, d := range g.Deps(n) {
			deps = append(deps, int(d))
		}
		if !slices.Equal(en.Deps, deps) {
			t.Errorf("node %d deps %v, want %v", i, en.Deps, deps)
		}
	}
	// The chain's second node depends on the first.
	if len(e.Nodes[1].Deps) != 1 || e.Nodes[1].Deps[0] != int(g.Nodes[0].ID) {
		t.Errorf("exported deps = %v", e.Nodes[1].Deps)
	}
}
