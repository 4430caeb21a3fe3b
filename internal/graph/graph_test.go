package graph

import (
	"reflect"
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

// kernelCount counts the kernels one execution of g launches.
func kernelCount(g *Graph) int {
	n := 0
	for _, node := range g.Nodes {
		n += len(g.NodeKernels(&node))
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
	out := g.Meta(g.Outputs(&g.Nodes[2])[0])
	if out.Dim(0) != 16 || out.Dim(1) != 8 {
		t.Errorf("final output = %v", out)
	}
}

func TestNodeKernels(t *testing.T) {
	g := tinyMLP(16)
	ks := g.NodeKernels(&g.Nodes[0])
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
	gm := v.NodeKernels(&v.Nodes[0])[0]
	if gm.Kind != kernels.KindGEMM || gm.M != 1024 {
		t.Errorf("after resize GEMM M = %d, want 1024", gm.M)
	}
	out := v.Meta(v.Outputs(&v.Nodes[2])[0])
	if out.Dim(0) != 1024 {
		t.Errorf("final output batch = %d", out.Dim(0))
	}
	if v.BatchSize() != 1024 {
		t.Errorf("BatchSize = %d", v.BatchSize())
	}
}

// TestWithBatchSharesStructureOwnsShapes: a bound view has the same
// nodes as its origin and its own shape table; the origin's shapes do
// not move, and a view bound at its own batch is a new view.
func TestWithBatchSharesStructureOwnsShapes(t *testing.T) {
	g := tinyMLP(16)
	v, err := g.WithBatch(1024)
	if err != nil {
		t.Fatal(err)
	}
	if v == g || len(v.Nodes) != len(g.Nodes) || &v.Nodes[0] != &g.Nodes[0] {
		t.Fatal("view does not share the origin's nodes")
	}
	if gm := v.NodeKernels(&v.Nodes[0])[0]; gm.Kind != kernels.KindGEMM || gm.M != 1024 {
		t.Errorf("view GEMM M = %d, want 1024", gm.M)
	}
	if gm := g.NodeKernels(&g.Nodes[0])[0]; gm.Kind != kernels.KindGEMM || gm.M != 16 || g.BatchSize() != 16 {
		t.Errorf("binding a view moved the origin: GEMM M = %d, batch %d", gm.M, g.BatchSize())
	}
	if len(v.shapes) != len(g.shapes) {
		t.Errorf("view has %d tensors, origin %d", len(v.shapes), len(g.shapes))
	}
	if same, err := v.WithBatch(1024); err != nil || same == v || same.BatchSize() != 1024 {
		t.Errorf("WithBatch at the current batch = %p, %v; want a new view of %p", same, err, v)
	}
	// A view binds further views; a clone of one is free to change.
	c := v.Clone()
	c.Apply(ops.ReLU(), c.Outputs(&c.Nodes[2])[0])
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
	deps := g.Deps(&g.Nodes[1])
	if len(deps) != 1 || deps[0] != g.Nodes[0].ID {
		t.Errorf("deps = %v", deps)
	}
	if len(g.Deps(&g.Nodes[0])) != 0 {
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
	out := c.Apply(ops.Linear{Out: 4}, c.Outputs(&c.Nodes[2])[0])
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
	if g.Op(fused).Name() != "LookupFunction" {
		t.Errorf("fused op = %s", g.Op(fused).Name())
	}
	out := g.Meta(g.Outputs(fused)[0])
	if out.Dim(0) != 128 || out.Dim(1) != 4 || out.Dim(2) != 16 {
		t.Errorf("fused output meta = %v", out)
	}
	// The downstream relu must now depend on the fused node.
	deps := g.Deps(&g.Nodes[1])
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

// mustPanic fails unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s on an unbound structure did not panic", what)
		}
	}()
	f()
}

// TestUnboundStructureHasNoShapes: an unbound structure keeps its nodes
// and its sources' metadata only, so reading a shape from it or walking
// it panics, while it still binds and knows its build batch.
func TestUnboundStructureHasNoShapes(t *testing.T) {
	g := tinyMLP(16)
	g.Unbind()
	if g.shapes != nil || g.BatchSize() != 16 || len(g.Nodes) != 3 {
		t.Fatalf("unbound structure: %d shapes, batch %d, %d nodes", len(g.shapes), g.BatchSize(), len(g.Nodes))
	}
	// Each slice sits in the smallest allocation that holds its length.
	tight := func(n, c int, size int64) bool {
		return allocBytes(uintptr(int64(c)*size)) == allocBytes(uintptr(int64(n)*size))
	}
	if !tight(len(g.edges), cap(g.edges), idBytes) || !tight(len(g.producers), cap(g.producers), idBytes) ||
		!tight(len(g.Nodes), cap(g.Nodes), nodeBytes) || !tight(len(g.sourceMetas), cap(g.sourceMetas), metaBytes) {
		t.Errorf("unbound structure keeps append slack: %d/%d edges, %d/%d producers, %d/%d nodes",
			len(g.edges), cap(g.edges), len(g.producers), cap(g.producers), len(g.Nodes), cap(g.Nodes))
	}
	mustPanic(t, "Meta", func() { g.Meta(g.Outputs(&g.Nodes[0])[0]) })
	mustPanic(t, "Meta of a source", func() { g.Meta(g.sources[0]) })
	mustPanic(t, "Launches", func() {
		for range g.Launches() {
		}
	})
	v, err := g.WithBatch(64)
	if err != nil {
		t.Fatal(err)
	}
	if gm := v.NodeKernels(&v.Nodes[0])[0]; gm.Kind != kernels.KindGEMM || gm.M != 64 {
		t.Errorf("view of an unbound structure: GEMM M = %d, want 64", gm.M)
	}
}

// TestBindAtBuildBatchIsAView: binding a structure at the batch it was
// built at returns a new view, never the structure, equal node by node
// to the built graph.
func TestBindAtBuildBatchIsAView(t *testing.T) {
	built, g := tinyMLP(16), tinyMLP(16)
	g.Unbind()
	v, err := g.WithBatch(16)
	if err != nil {
		t.Fatal(err)
	}
	if v == g || !v.view || &v.Nodes[0] != &g.Nodes[0] {
		t.Fatalf("WithBatch at the build batch = %p (view %v), structure %p", v, v.view, g)
	}
	if len(v.Nodes) != len(built.Nodes) || len(v.shapes) != len(built.shapes) {
		t.Fatalf("view has %d nodes and %d tensors, the build %d and %d",
			len(v.Nodes), len(v.shapes), len(built.Nodes), len(built.shapes))
	}
	for i := range v.Nodes {
		n, w := &v.Nodes[i], &built.Nodes[i]
		if n.ID != w.ID || v.Op(n) != built.Op(w) || !slices.Equal(v.Inputs(n), built.Inputs(w)) || !slices.Equal(v.Outputs(n), built.Outputs(w)) {
			t.Errorf("node %d differs from the build", i)
		}
		if !slices.Equal(v.NodeKernels(n), built.NodeKernels(w)) {
			t.Errorf("node %d launches other kernels than the build", i)
		}
	}
	if !slices.Equal(v.shapes, built.shapes) {
		t.Errorf("view shapes %v, built %v", v.shapes, built.shapes)
	}
}

// TestReleasedViewIsReused: a released view and its shape table serve
// the next bind. The pool may drop a put value (it does so at random
// under the race detector), so the test asks several times.
func TestReleasedViewIsReused(t *testing.T) {
	g := tinyMLP(16)
	g.Unbind()
	reused := false
	for range 16 {
		v, err := g.WithBatch(32)
		if err != nil {
			t.Fatal(err)
		}
		table := &v.shapes[0]
		v.Release()
		w, err := g.WithBatch(48)
		if err != nil {
			t.Fatal(err)
		}
		if w.BatchSize() != 48 || w.Meta(w.Outputs(&w.Nodes[2])[0]).Dim(0) != 48 {
			t.Fatalf("a bind into a recycled view is at batch %d", w.BatchSize())
		}
		reused = reused || (w == v && &w.shapes[0] == table)
		w.Release()
	}
	if !reused {
		t.Error("no bind reused a released view")
	}
	// Release leaves what WithBatch did not bind alone.
	c := g.Clone()
	g.Release()
	c.Release()
	if len(g.Nodes) != 3 || len(c.Nodes) != 3 {
		t.Error("Release emptied a structure or a clone")
	}
}

// TestBindKeepsNoOversizedTable: a view recycled from a far larger
// graph does not keep that graph's shape table alive in the pool.
func TestBindKeepsNoOversizedTable(t *testing.T) {
	big := New()
	x := big.Input(tensor.New(8, 64))
	for range 400 {
		x = big.Apply(ops.ReLU(), x)[0]
	}
	small := tinyMLP(8)
	for range 4 {
		v, err := big.WithBatch(16)
		if err != nil {
			t.Fatal(err)
		}
		v.Release()
		w, err := small.WithBatch(16)
		if err != nil {
			t.Fatal(err)
		}
		if oversized(cap(w.shapes), len(w.shapes)) {
			t.Fatalf("a view of %d tensors holds a table of %d", len(w.shapes), cap(w.shapes))
		}
		w.Release()
	}
}

// TestCloneReplacePropagates is the Fig. 11 path (FuseEmbeddingBags): a
// clone of a view of a stored structure is bound, so ReplaceNodes
// fuses in it and propagates the fused node's shapes, and the structure
// and the view do not move.
func TestCloneReplacePropagates(t *testing.T) {
	g := New()
	idx := g.Input(tensor.NewTyped(tensor.Int64, 128, 3, 10))
	var outs []TensorID
	var ids []NodeID
	for range 3 {
		o := g.Apply(ops.EmbeddingBag{Rows: 1000, L: 10, D: 16}, idx)
		ids = append(ids, g.Producer(o[0]))
		outs = append(outs, o[0])
	}
	cat := g.Apply(ops.Concat{Dim: 1}, outs...)
	relu := g.Apply(ops.ReLU(), cat[0])
	ids = append(ids, g.Producer(cat[0]))
	g.Unbind()
	v, err := g.WithBatch(256)
	if err != nil {
		t.Fatal(err)
	}
	c := v.Clone()
	fused, err := c.ReplaceNodes(ids, ops.EmbeddingLookup{Rows: []int64{1000, 1000, 1000}, L: 10, D: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 2 || c.Deps(&c.Nodes[1])[0] != fused.ID {
		t.Fatalf("fused clone has %d nodes", len(c.Nodes))
	}
	if m := c.Meta(relu[0]); m.Dim(0) != 256 || m.Dim(1) != 3 || m.Dim(2) != 16 {
		t.Errorf("fused clone's relu output = %v", m)
	}
	w, err := c.WithBatch(64)
	if err != nil {
		t.Fatal(err)
	}
	if m := w.Meta(relu[0]); m.Dim(0) != 64 {
		t.Errorf("a view of the fused clone has relu output %v", m)
	}
	if len(g.Nodes) != 5 || len(v.Nodes) != 5 || v.Meta(relu[0]).Dim(0) != 256 || g.Validate() != nil {
		t.Error("fusing a clone reached the structure or its view")
	}
}

// opsBuild builds a graph whose nodes repeat comparable ops (a shared
// ReLU, equal Linear and Concat values) and ops that hold a slice
// (equal Views, equal lookups).
func opsBuild() *Graph {
	g := New()
	x := g.Input(tensor.New(16, 64))
	idx := g.Input(tensor.NewTyped(tensor.Int64, 16, 2, 4))
	for range 3 {
		x = g.Apply(ops.Linear{Out: 64}, x)[0]
		x = g.Apply(ops.ReLU(), x)[0]
	}
	v := g.Apply(ops.View{NewShape: []int64{-1, 1, 64}}, x)[0]
	w := g.Apply(ops.View{NewShape: []int64{-1, 1, 64}}, x)[0]
	for range 2 {
		e := g.Apply(ops.EmbeddingLookup{Rows: []int64{100, 200}, L: 4, D: 64}, idx)[0]
		g.Apply(ops.Concat{Dim: 1}, v, w, e)
	}
	return g
}

// TestUnbindStoresEachOpOnce: after Unbind the op table holds no two
// equal comparable values and no slack, each op holding a slice keeps
// an entry of its own, every node executes the op it was built with,
// and a view reads the structure's table.
func TestUnbindStoresEachOpOnce(t *testing.T) {
	built, g := opsBuild(), opsBuild()
	g.Unbind()
	for i, a := range g.ops {
		for _, b := range g.ops[i+1:] {
			if reflect.ValueOf(a).Comparable() && a == b {
				t.Errorf("the table stores %v twice", a)
			}
		}
	}
	if allocBytes(uintptr(cap(g.ops))*uintptr(opRefBytes)) != allocBytes(uintptr(len(g.ops))*uintptr(opRefBytes)) {
		t.Errorf("the table keeps append slack: %d/%d", len(g.ops), cap(g.ops))
	}
	// Linear, ReLU, two Views, two lookups and Concat.
	if len(g.ops) != 7 {
		t.Errorf("%d table entries for %d nodes, want 7", len(g.ops), len(g.Nodes))
	}
	views := 0
	for i := range g.Nodes {
		op := g.Op(&g.Nodes[i])
		if !reflect.DeepEqual(op, built.Op(&built.Nodes[i])) {
			t.Errorf("node %d executes %v, built with %v", i, op, built.Op(&built.Nodes[i]))
		}
		if _, ok := op.(ops.View); ok {
			views++
			if g.Nodes[i].op == g.Nodes[i-1].op {
				t.Errorf("node %d shares its View's entry with node %d", i, i-1)
			}
		}
	}
	if views != 2 {
		t.Errorf("%d View nodes, want 2", views)
	}
	v, err := g.WithBatch(32)
	if err != nil {
		t.Fatal(err)
	}
	w, err := built.WithBatch(32)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.ops) != len(g.ops) || &v.ops[0] != &g.ops[0] {
		t.Error("a view does not read its structure's op table")
	}
	for i := range v.Nodes {
		if !slices.Equal(v.NodeKernels(&v.Nodes[i]), w.NodeKernels(&w.Nodes[i])) {
			t.Errorf("node %d of the view launches other kernels than the build bound at 32", i)
		}
	}
}

// TestCloneReplaceKeepsOriginalOps: fusing in two clones of a bound
// build graph, whose op table has spare capacity, leaves the original's
// table and nodes as they were, and each clone executes its own fused
// op: a clone appends to a table of its own.
func TestCloneReplaceKeepsOriginalOps(t *testing.T) {
	g := New()
	idx := g.Input(tensor.NewTyped(tensor.Int64, 64, 3, 10))
	var outs []TensorID
	var ids []NodeID
	for range 3 {
		o := g.Apply(ops.EmbeddingBag{Rows: 1000, L: 10, D: 16}, idx)
		ids = append(ids, g.Producer(o[0]))
		outs = append(outs, o[0])
	}
	cat := g.Apply(ops.Concat{Dim: 1}, outs...)
	g.Apply(ops.ReLU(), cat[0])
	ids = append(ids, g.Producer(cat[0]))
	if cap(g.ops) == len(g.ops) {
		t.Fatalf("the build's table has no spare capacity (%d entries): the test would not see a shared one", len(g.ops))
	}
	table := slices.Clone(g.ops)
	nodes := slices.Clone(g.Nodes)

	fuse := func(d int64) (*Graph, ops.Op, *Node) {
		c := g.Clone()
		op := ops.EmbeddingLookup{Rows: []int64{1000, 1000, 1000}, L: 10, D: d}
		fused, err := c.ReplaceNodes(ids, op)
		if err != nil {
			t.Fatal(err)
		}
		return c, op, fused
	}
	c1, op1, fused1 := fuse(16)
	c2, op2, fused2 := fuse(32)
	if !reflect.DeepEqual(c1.Op(fused1), op1) || !reflect.DeepEqual(c2.Op(fused2), op2) {
		t.Errorf("the clones execute %v and %v, fused with %v and %v", c1.Op(fused1), c2.Op(fused2), op1, op2)
	}
	if len(g.ops) != len(table) || !slices.EqualFunc(g.ops, table, func(a, b ops.Op) bool { return reflect.DeepEqual(a, b) }) {
		t.Errorf("fusing in clones changed the original's table: %v, was %v", g.ops, table)
	}
	if !slices.Equal(g.Nodes, nodes) {
		t.Error("fusing in clones changed the original's nodes")
	}
	for i := range g.Nodes {
		if !reflect.DeepEqual(g.Op(&g.Nodes[i]), table[nodes[i].op]) {
			t.Errorf("original node %d executes %v, was %v", i, g.Op(&g.Nodes[i]), table[nodes[i].op])
		}
	}
}
