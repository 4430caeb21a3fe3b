// Package graph implements the model execution graph: the artifact the
// paper's PyTorch observer extracts during a training iteration, holding
// every executed operator, its input/output tensors, and hence the data
// dependencies between ops. The graph is the input to both the simulator
// (which "runs" it to produce measured traces) and the end-to-end
// performance model (Algorithm 1).
//
// Because ops derive their kernels from tensor metadata, the graph
// supports the two what-ifs of Section V-A this reproduction runs for
// model-system co-design: batch resizing (WithBatch) and op fusion
// (ReplaceNodes), both without re-capturing the model.
//
// A Graph is two parts. The structure — the node list, the op table and
// the edge arena its nodes index into, the sources with the metadata
// they were registered with, and each tensor's producer — says which op
// consumes what and does not depend on the batch size. The shape table
// — one tensor.Meta per TensorID — is the only part that does. Nodes are
// values in one slice, each an ID, an index into the op table (read the
// op with Op) and three offsets into one arena of tensor IDs (its
// inputs, then its outputs; read them with Inputs and Outputs), so a
// structure is a handful of allocations besides its distinct ops.
//
// A graph a builder returns is bound: it carries the shape table of its
// build batch, and one op table entry per node. Unbind drops the shape
// table and the append slack and stores each comparable op value once,
// leaving a structure that carries no shape beyond its sources' — the
// form a long-lived cache keeps. WithBatch binds a batch to a
// structure, bound or not: it returns a view that shares the structure
// and owns a shape table filled by one propagation pass, so a sweep over
// batch sizes builds nodes and ops once. A caller that drops its view
// right after reading it hands it back with Release, and the next bind
// reuses the view and its table: binding then allocates nothing.
//
// A walk reads a bound graph through Launches: every node in issue
// order with the kernels it launches under the graph's shapes, one node
// at a time in a pooled buffer. Algorithm 1's walk, the simulator's
// plan and the baselines all read it. Reading a shape of an unbound
// structure (Meta, Launches) panics.
//
// Sharing rule: a view and the graph it was bound from share their
// nodes and their op table, so both are read-only from then on — any
// number of goroutines may walk them or bind further views. The
// transforms (ReplaceNodes and Apply) edit a bound graph's structure in
// place: apply them to a Clone, which copies the op table and shares
// nothing but the immutable op values.
package graph

import (
	"fmt"
	"iter"
	"reflect"
	"slices"
	"sync"
	"unsafe"

	"dlrmperf/internal/kernels"
	"dlrmperf/internal/ops"
	"dlrmperf/internal/tensor"
)

// TensorID identifies a tensor value in the graph. IDs are dense: the
// n-th tensor registered is n.
type TensorID int32

// NodeID identifies an operator node in the graph.
type NodeID int32

// Node is one executed operator. Its kernels are issued to the one
// device stream, after those of every node before it. Its op and its
// edges live in its graph's op table and arena: read them with
// Graph.Op, Graph.Inputs and Graph.Outputs.
type Node struct {
	ID NodeID
	// op indexes the node's op in the op table.
	op int32
	// in, out and end delimit the node's edges in the arena: its inputs
	// are edges[in:out], its outputs edges[out:end].
	in, out, end int32
}

// Graph is an execution graph. Nodes appear in captured execution order,
// which is also the host issue order during simulation and prediction.
type Graph struct {
	// Structure, shared between a graph and the views bound from it.
	Nodes []Node
	// ops is the op table every node's op indexes into.
	ops []ops.Op
	// edges is the arena every node's inputs and outputs index into.
	edges []TensorID
	// sources are graph inputs (model inputs, labels): tensors not
	// produced by any node; sourceMetas[i] is the metadata sources[i]
	// was registered with.
	sources     []TensorID
	sourceMetas []tensor.Meta
	// producers[id] is the node producing tensor id, -1 for sources and
	// for tensors a transform removed.
	producers []NodeID
	nextNode  NodeID

	// shapes is the shape table, indexed by TensorID; each view owns its
	// own, and an unbound structure has none.
	shapes []tensor.Meta
	// view marks a graph WithBatch bound, which Release may recycle.
	view bool
}

// views recycles released views together with their shape tables.
var views = sync.Pool{New: func() any { return new(Graph) }}

// scratch is the working memory of one validation, propagation or
// Launches pass, recycled so that a bind or a walk allocates nothing it
// does not return. The kernel buffer grows to the busiest node's launch
// count (an optimizer op launches one kernel per parameter) and a
// Kernel is 216 bytes, so fresh buffers per walk would cost more than
// the rest of the walk.
type scratch struct {
	in, out  []tensor.Meta
	ks       []kernels.Kernel
	produced []bool
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// newTensor registers a tensor and returns its ID.
func (g *Graph) newTensor(m tensor.Meta, producer NodeID) TensorID {
	g.shapes = append(g.shapes, m)
	g.producers = append(g.producers, producer)
	return TensorID(len(g.producers) - 1)
}

// dropTensor forgets a tensor a transform left without a producer.
func (g *Graph) dropTensor(id TensorID) {
	g.shapes[id], g.producers[id] = tensor.Meta{}, -1
}

// Input registers a graph input tensor (e.g. the dense feature batch) and
// returns its ID.
func (g *Graph) Input(m tensor.Meta) TensorID {
	id := g.newTensor(m, -1)
	g.sources = append(g.sources, id)
	g.sourceMetas = append(g.sourceMetas, m)
	return id
}

// Meta returns the metadata of tensor id. It panics on an unbound
// structure, which has no shapes to read.
func (g *Graph) Meta(id TensorID) tensor.Meta {
	if id < 0 || int(id) >= len(g.shapes) {
		panic(unknownTensor(id))
	}
	return g.shapes[id]
}

// Op returns the op node n of g executes.
func (g *Graph) Op(n *Node) ops.Op { return g.ops[n.op] }

// Inputs returns the tensors node n of g consumes, in order. The slice
// is the graph's own: read it, never write it.
func (g *Graph) Inputs(n *Node) []TensorID { return g.edges[n.in:n.out:n.out] }

// Outputs returns the tensors node n of g produces, in order. The slice
// is the graph's own: read it, never write it.
func (g *Graph) Outputs(n *Node) []TensorID { return g.edges[n.out:n.end:n.end] }

// Apply appends a node executing op on the given inputs and returns the
// IDs of its output tensors (Outputs of the new node). g must be bound.
func (g *Graph) Apply(op ops.Op, inputs ...TensorID) []TensorID {
	sc := scratches.Get().(*scratch)
	sc.in = g.InputMetas(sc.in[:0], inputs)
	sc.out = op.AppendOutputs(sc.out[:0], sc.in)
	n := Node{ID: g.nextNode, op: int32(len(g.ops)), in: int32(len(g.edges))}
	g.nextNode++
	g.ops = append(g.ops, op)
	g.edges = append(g.edges, inputs...)
	n.out = int32(len(g.edges))
	for _, m := range sc.out {
		g.edges = append(g.edges, g.newTensor(m, n.ID))
	}
	scratches.Put(sc)
	n.end = int32(len(g.edges))
	g.Nodes = append(g.Nodes, n)
	return g.Outputs(&n)
}

// InputMetas appends the metadata of the given tensors to dst and
// returns it, the input half of the ops package's append contract. A
// walk over many nodes passes the previous result re-sliced to [:0] and
// hands it to the node's AppendKernels or AppendOutputs, which read it
// during the call and keep nothing of it, so the whole walk holds one
// buffer.
func (g *Graph) InputMetas(dst []tensor.Meta, inputs []TensorID) []tensor.Meta {
	for _, id := range inputs {
		dst = append(dst, g.Meta(id))
	}
	return dst
}

// Launches yields every node of g in issue order together with the
// kernels it launches under g's shapes. The node points into g's node
// list; the kernel slice is a pooled buffer the next node reuses: a
// caller reads it before asking for the next node and copies what it
// keeps; the pool keeps it unless it is oversized for this walk's
// busiest node. Breaking out of the loop early is allowed. It panics on
// an unbound structure.
//
// Algorithm 1's walk over a bound view lists its launches here.
//
//lint:hotpath root
func (g *Graph) Launches() iter.Seq2[*Node, []kernels.Kernel] {
	if !g.bound() {
		panic("graph: Launches on an unbound structure: bind a batch with WithBatch")
	}
	return func(yield func(*Node, []kernels.Kernel) bool) {
		sc := scratches.Get().(*scratch)
		most := 0
		for i := range g.Nodes {
			n := &g.Nodes[i]
			sc.in = g.InputMetas(sc.in[:0], g.Inputs(n))
			sc.ks = g.Op(n).AppendKernels(sc.ks[:0], sc.in)
			most = max(most, len(sc.ks))
			if !yield(n, sc.ks) {
				break
			}
		}
		if oversized(cap(sc.ks), most) {
			sc.ks = nil
		}
		scratches.Put(sc)
	}
}

// NodeKernels returns the kernels node n launches under the current
// tensor shapes, in a slice of their own. It allocates two slices per
// call: a walk uses Launches.
//
//lint:allow unlinked contract-test helper: the graph, models and bind suites compare a node's kernels through it
func (g *Graph) NodeKernels(n *Node) []kernels.Kernel {
	return g.Op(n).AppendKernels(nil, g.InputMetas(nil, g.Inputs(n)))
}

// Producer returns the node producing tensor id, or -1 for graph inputs.
func (g *Graph) Producer(id TensorID) NodeID {
	if id < 0 || int(id) >= len(g.producers) {
		return -1
	}
	return g.producers[id]
}

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id NodeID) *Node {
	for i := range g.Nodes {
		if g.Nodes[i].ID == id {
			return &g.Nodes[i]
		}
	}
	return nil
}

// Deps returns the IDs of the nodes whose outputs node n consumes, in
// first-use order.
func (g *Graph) Deps(n *Node) []NodeID {
	var deps []NodeID
	for _, in := range g.Inputs(n) {
		if p := g.Producer(in); p >= 0 && !slices.Contains(deps, p) {
			deps = append(deps, p)
		}
	}
	return deps
}

// Validate checks structural integrity: every node input is either a
// graph source or produced by an earlier node, and every node's declared
// outputs exist.
func (g *Graph) Validate() error {
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	sc.produced = append(sc.produced[:0], make([]bool, len(g.producers))...)
	produced := sc.produced
	for _, s := range g.sources {
		produced[s] = true
	}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		for _, in := range g.Inputs(n) {
			if in < 0 || int(in) >= len(produced) || !produced[in] {
				return g.nodeErrorf(n, "at position %d consumes tensor %d before it is produced", i, in)
			}
		}
		for _, out := range g.Outputs(n) {
			if g.Producer(out) != n.ID {
				return g.nodeErrorf(n, "declares unknown output tensor %d", out)
			}
			produced[out] = true
		}
	}
	return nil
}

// nodeErrorf reports a structural fault at node n. The checks that call
// it run on every bind; the formatting is kept out of them (it is a stop
// of the hotpath analyzer) and runs only when one fails.
//
//lint:hotpath stop formats the fault of a bind check that failed
func (g *Graph) nodeErrorf(n *Node, format string, args ...any) error {
	return fmt.Errorf("graph: node %d (%s) "+format, append([]any{n.ID, g.Op(n).Name()}, args...)...)
}

// unknownTensor formats the panic of a read past the shape table, a
// stop of the hotpath analyzer like nodeErrorf.
//
//lint:hotpath stop formats the panic of a read past the shape table
func unknownTensor(id TensorID) string {
	return fmt.Sprintf("graph: unknown tensor %d", id)
}

// oversized reports whether a recycled buffer of capacity c is far
// larger than the n elements its user needs. A bind or a walk drops
// such a buffer rather than return it to its pool, where it would hold
// the largest graph's shapes or kernels for as long as smaller graphs
// keep the pool in use.
func oversized(c, n int) bool { return c > 4*n }

// bound reports whether g carries a shape for every tensor.
func (g *Graph) bound() bool { return len(g.shapes) == len(g.producers) }

// Propagate recomputes every tensor's metadata from the sources through
// the node list, in order. It must be called after editing nodes.
func (g *Graph) Propagate() error {
	if err := g.Validate(); err != nil {
		return err
	}
	return g.propagate()
}

// propagate fills g's shape table, whose source entries are set, from
// the node list in order — the one shape-inference pass behind
// Propagate and WithBatch.
func (g *Graph) propagate() error {
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		sc.in = sc.in[:0]
		for _, id := range g.Inputs(n) {
			sc.in = append(sc.in, g.shapes[id])
		}
		sc.out = g.Op(n).AppendOutputs(sc.out[:0], sc.in)
		outs := g.Outputs(n)
		if len(sc.out) != len(outs) {
			return g.nodeErrorf(n, "output arity changed from %d to %d", len(outs), len(sc.out))
		}
		for j, m := range sc.out {
			g.shapes[outs[j]] = m
		}
	}
	return nil
}

// WithBatch binds batch size b to g's structure: it returns a view whose
// graph inputs have leading dimension b and whose every other shape
// follows by propagation, equal to building the model at b from
// scratch. The view shares g's structure (see the package doc for the
// read-only rule that follows) and owns its shape table, which a
// released view lends it (see Release). It is always a new view, at
// g's own batch too.
//
// It runs once per device graph of every result-cache miss.
//
//lint:hotpath root
func (g *Graph) WithBatch(b int64) (*Graph, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	// The recycled table is taken before *v is overwritten, unless it is
	// oversized for g. Rows no source and no node fills (tensors a
	// transform removed) stay zero.
	v := views.Get().(*Graph)
	n := len(g.producers)
	shapes := v.shapes[:0]
	if oversized(cap(shapes), n) {
		shapes = nil
	}
	shapes = slices.Grow(shapes, n)[:n]
	clear(shapes)
	*v = *g
	v.shapes, v.view = shapes, true
	for i, s := range g.sources {
		v.shapes[s] = g.sourceMetas[i].WithBatch(b)
	}
	if err := v.propagate(); err != nil {
		return nil, err
	}
	return v, nil
}

// Release gives a view back for a later WithBatch to reuse, shape table
// included. Only the caller WithBatch returned the view to may release
// it: once, after its last read, and only if the view was never handed
// to anyone else. On a graph WithBatch did not bind — a built
// structure or a clone — Release does nothing.
func (g *Graph) Release() {
	if g.view {
		*g = Graph{shapes: g.shapes[:0]}
		views.Put(g)
	}
}

// Unbind turns g into a stored structure: it drops g's shape table and
// copies every slice of the structure into an allocation sized to its
// length, so g holds no batch-dependent state and no append slack. Its
// op table keeps the ops its nodes execute, each comparable op value
// once: equal values behave alike, so the nodes that built equal ones
// share the first. An op holding a slice (a view's shape, a lookup's
// tables, an optimizer's parameter sizes) keeps an entry per node. g
// must not be a view or shared yet. Bind a batch to it with WithBatch.
func (g *Graph) Unbind() {
	g.Nodes = slices.Clone(g.Nodes)
	g.internOps()
	g.edges = slices.Clone(g.edges)
	g.sources = slices.Clone(g.sources)
	g.sourceMetas = slices.Clone(g.sourceMetas)
	g.producers = slices.Clone(g.producers)
	g.shapes = nil
}

// internOps rebuilds g's op table from its nodes, as Unbind describes:
// one entry per distinct comparable op value, one per node for the
// rest, in an allocation of the table's length. An op type holds no
// interface, so the values of a comparable type hash.
func (g *Graph) internOps() {
	index := map[ops.Op]int32{}
	// loose holds the ops that are not comparable, each with its entry.
	type entry struct {
		op ops.Op
		at int32
	}
	loose := make([]entry, 0, 8)
	size := int32(0)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		op := g.ops[n.op]
		if !reflect.TypeOf(op).Comparable() {
			loose = append(loose, entry{op, size})
			n.op = size
			size++
			continue
		}
		k, ok := index[op]
		if !ok {
			k = size
			index[op] = k
			size++
		}
		n.op = k
	}
	g.ops = make([]ops.Op, size)
	for op, k := range index {
		g.ops[k] = op
	}
	for _, e := range loose {
		g.ops[e.at] = e.op
	}
}

// Bytes returns the heap g's structure and shape table occupy: the
// graph itself, each slice's capacity and the op values its table
// holds, each entry once. The ops package's shared values are static
// data and are not charged. A view shares the structure, so only a
// stored structure is charged this way.
func (g *Graph) Bytes() int64 {
	n := int64(graphBytes) +
		int64(cap(g.Nodes))*nodeBytes +
		int64(cap(g.ops))*opRefBytes +
		int64(cap(g.edges)+cap(g.sources)+cap(g.producers))*idBytes +
		int64(cap(g.sourceMetas)+cap(g.shapes))*metaBytes
	for _, op := range g.ops {
		if !ops.Shared(op) {
			n += opBytes(op)
		}
	}
	return n
}

// The sizes Bytes charges: a Graph, a Node, an op table entry, a
// TensorID or NodeID, and a tensor.Meta.
const (
	graphBytes = int64(unsafe.Sizeof(Graph{}))
	nodeBytes  = int64(unsafe.Sizeof(Node{}))
	opRefBytes = int64(unsafe.Sizeof(ops.Op(nil)))
	idBytes    = int64(unsafe.Sizeof(TensorID(0)))
	metaBytes  = int64(unsafe.Sizeof(tensor.Meta{}))
)

// opBytes is the heap an op value boxed in the op table holds: the
// value at its allocation size, plus the backing array of each slice
// field (the table rows of a fused lookup, an optimizer's parameter
// sizes).
func opBytes(op ops.Op) int64 {
	v := reflect.ValueOf(op)
	n := allocBytes(v.Type().Size())
	if v.Kind() != reflect.Struct {
		return n
	}
	for i := range v.NumField() {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			n += allocBytes(uintptr(f.Cap()) * f.Type().Elem().Size())
		}
	}
	return n
}

// allocBytes rounds an allocation up to the Go allocator's size
// classes, exactly up to 256 bytes (an op value, most slices of one) and
// to 16 bytes past that; an empty value allocates nothing.
func allocBytes(size uintptr) int64 {
	switch {
	case size == 0:
		return 0
	case size <= 8:
		return 8
	case size <= 32:
		return int64(size+7) &^ 7
	case size <= 48:
		return 48
	}
	return int64(size+15) &^ 15
}

// BatchSize returns the leading dimension of the first non-scalar source.
//
//lint:allow unlinked contract-test helper: the graph, models and engine bind suites check a view's batch through it
func (g *Graph) BatchSize() int64 {
	for i, s := range g.sources {
		m := g.sourceMetas[i]
		if g.bound() {
			m = g.shapes[s]
		}
		if m.Rank() > 0 {
			return m.Dim(0)
		}
	}
	return 0
}

// Clone returns a deep copy of the graph. Its op table is a copy too,
// which the transforms append to; the op values in it are immutable and
// shared.
func (g *Graph) Clone() *Graph {
	return &Graph{
		Nodes:       slices.Clone(g.Nodes),
		ops:         slices.Clone(g.ops),
		edges:       slices.Clone(g.edges),
		sources:     slices.Clone(g.sources),
		sourceMetas: slices.Clone(g.sourceMetas),
		producers:   slices.Clone(g.producers),
		nextNode:    g.nextNode,
		shapes:      slices.Clone(g.shapes),
	}
}
