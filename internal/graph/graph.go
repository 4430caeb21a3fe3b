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
// A Graph is two parts. The structure — the node list, the sources and
// each tensor's producer — says which op consumes what and does not
// depend on the batch size. The shape table — one tensor.Meta per
// TensorID — is the only part that does. WithBatch binds a batch to a
// structure: it returns a view that shares the structure and owns a
// fresh shape table filled by one propagation pass, so a sweep over
// batch sizes builds nodes and ops once. A caller that drops its view
// right after reading it hands it back with Release, and the next bind
// reuses the view and its table: binding then allocates nothing.
//
// A walk reads a bound graph through Launches: every node in issue
// order with the kernels it launches under the graph's shapes, one node
// at a time in a pooled buffer. Algorithm 1's walk, the simulator's
// plan and the baselines all read it.
//
// Sharing rule: a view and the graph it was bound from share their
// nodes, so both are read-only from then on — any number of goroutines
// may walk them or bind further views. The transforms (ReplaceNodes and
// Apply) edit structure in place: apply them to a Clone, which shares
// nothing but the immutable ops.
package graph

import (
	"fmt"
	"iter"
	"slices"
	"sync"

	"dlrmperf/internal/kernels"
	"dlrmperf/internal/ops"
	"dlrmperf/internal/tensor"
)

// TensorID identifies a tensor value in the graph. IDs are dense: the
// n-th tensor registered is n.
type TensorID int

// NodeID identifies an operator node in the graph.
type NodeID int

// Node is one executed operator. Its kernels are issued to the one
// device stream, after those of every node before it.
type Node struct {
	ID      NodeID
	Op      ops.Op
	Inputs  []TensorID
	Outputs []TensorID
}

// Graph is an execution graph. Nodes appear in captured execution order,
// which is also the host issue order during simulation and prediction.
type Graph struct {
	// Structure, shared between a graph and the views bound from it.
	Nodes []*Node
	// sources are graph inputs (model inputs, labels): tensors not
	// produced by any node.
	sources []TensorID
	// producers[id] is the node producing tensor id, -1 for sources and
	// for tensors a transform removed.
	producers []NodeID
	nextNode  NodeID

	// shapes is the shape table, indexed by TensorID; each view owns its
	// own.
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
	return TensorID(len(g.shapes) - 1)
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
	return id
}

// Meta returns the metadata of tensor id.
func (g *Graph) Meta(id TensorID) tensor.Meta {
	if id < 0 || int(id) >= len(g.shapes) {
		panic(unknownTensor(id))
	}
	return g.shapes[id]
}

// Apply appends a node executing op on the given inputs and returns the
// IDs of its output tensors.
func (g *Graph) Apply(op ops.Op, inputs ...TensorID) []TensorID {
	outMetas := op.AppendOutputs(nil, g.InputMetas(nil, inputs))
	node := &Node{
		ID:     g.nextNode,
		Op:     op,
		Inputs: append([]TensorID(nil), inputs...),
	}
	g.nextNode++
	for _, m := range outMetas {
		node.Outputs = append(node.Outputs, g.newTensor(m, node.ID))
	}
	g.Nodes = append(g.Nodes, node)
	return node.Outputs
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
// kernels it launches under g's shapes. The kernel slice is a pooled
// buffer the next node reuses: a caller reads it before asking for the
// next node and copies what it keeps. Breaking out of the loop early is
// allowed.
func (g *Graph) Launches() iter.Seq2[*Node, []kernels.Kernel] {
	return func(yield func(*Node, []kernels.Kernel) bool) {
		sc := scratches.Get().(*scratch)
		for _, n := range g.Nodes {
			sc.in = g.InputMetas(sc.in[:0], n.Inputs)
			sc.ks = n.Op.AppendKernels(sc.ks[:0], sc.in)
			if !yield(n, sc.ks) {
				break
			}
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
	return n.Op.AppendKernels(nil, g.InputMetas(nil, n.Inputs))
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
	for _, n := range g.Nodes {
		if n.ID == id {
			return n
		}
	}
	return nil
}

// Deps returns the IDs of the nodes whose outputs node n consumes, in
// first-use order.
func (g *Graph) Deps(n *Node) []NodeID {
	var deps []NodeID
	for _, in := range n.Inputs {
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
	sc.produced = append(sc.produced[:0], make([]bool, len(g.shapes))...)
	produced := sc.produced
	for _, s := range g.sources {
		produced[s] = true
	}
	for i, n := range g.Nodes {
		for _, in := range n.Inputs {
			if in < 0 || int(in) >= len(produced) || !produced[in] {
				return nodeErrorf(n, "at position %d consumes tensor %d before it is produced", i, in)
			}
		}
		for _, out := range n.Outputs {
			if g.Producer(out) != n.ID {
				return nodeErrorf(n, "declares unknown output tensor %d", out)
			}
			produced[out] = true
		}
	}
	return nil
}

// nodeErrorf reports a structural fault at node n. The checks that call
// it run on every bind; the formatting is kept out of them (it is a stop
// of the hotpath analyzer) and runs only when one fails.
func nodeErrorf(n *Node, format string, args ...any) error {
	return fmt.Errorf("graph: node %d (%s) "+format, append([]any{n.ID, n.Op.Name()}, args...)...)
}

// unknownTensor formats the panic of a read past the shape table, a
// stop of the hotpath analyzer like nodeErrorf.
func unknownTensor(id TensorID) string {
	return fmt.Sprintf("graph: unknown tensor %d", id)
}

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
	for _, n := range g.Nodes {
		sc.in = sc.in[:0]
		for _, id := range n.Inputs {
			sc.in = append(sc.in, g.shapes[id])
		}
		sc.out = n.Op.AppendOutputs(sc.out[:0], sc.in)
		if len(sc.out) != len(n.Outputs) {
			return nodeErrorf(n, "output arity changed from %d to %d", len(n.Outputs), len(sc.out))
		}
		for i, m := range sc.out {
			g.shapes[n.Outputs[i]] = m
		}
	}
	return nil
}

// WithBatch binds batch size b to g's structure: it returns a view whose
// graph inputs have leading dimension b and whose every other shape
// follows by propagation, equal to building the model at b from
// scratch. The view shares g's structure (see the package doc for the
// read-only rule that follows) and owns its shape table, which a
// released view lends it (see Release); a graph already at b is its own
// view.
func (g *Graph) WithBatch(b int64) (*Graph, error) {
	if g.BatchSize() == b {
		return g, nil
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	// The recycled table is read (appended to) before *v is overwritten.
	v := views.Get().(*Graph)
	*v, v.shapes, v.view = *g, append(v.shapes[:0], g.shapes...), true
	for _, s := range g.sources {
		v.shapes[s] = g.shapes[s].WithBatch(b)
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
// structure, a clone, or a graph returned as its own view — Release
// does nothing.
func (g *Graph) Release() {
	if g.view {
		*g = Graph{shapes: g.shapes[:0]}
		views.Put(g)
	}
}

// BatchSize returns the leading dimension of the first non-scalar source.
func (g *Graph) BatchSize() int64 {
	for _, s := range g.sources {
		if m := g.shapes[s]; m.Rank() > 0 {
			return m.Dim(0)
		}
	}
	return 0
}

// Clone returns a deep copy of the graph (ops are immutable values and
// are shared).
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Nodes:     make([]*Node, len(g.Nodes)),
		sources:   append([]TensorID(nil), g.sources...),
		producers: append([]NodeID(nil), g.producers...),
		nextNode:  g.nextNode,
		shapes:    append([]tensor.Meta(nil), g.shapes...),
	}
	for i, n := range g.Nodes {
		c.Nodes[i] = &Node{
			ID:      n.ID,
			Op:      n.Op,
			Inputs:  append([]TensorID(nil), n.Inputs...),
			Outputs: append([]TensorID(nil), n.Outputs...),
		}
	}
	return c
}
