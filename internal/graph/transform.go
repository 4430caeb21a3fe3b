package graph

import (
	"fmt"

	"dlrmperf/internal/ops"
)

// This file implements the execution-graph transforms of Section V-A:
// op fusion (Fig. 11), node removal/replacement for iterative model
// tuning, and multi-stream parallelization.

// ReplaceNodes removes the nodes with the given IDs and splices a single
// fused node executing op in their place. The fused node consumes the
// external inputs of the removed set (in first-use order) and its outputs
// are rewired to the consumers of the removed nodes' outputs: the op's
// i-th output replaces the i-th *externally consumed* output of the
// removed set. This is the primitive behind the embedding-bag fusion
// case study.
func (g *Graph) ReplaceNodes(ids []NodeID, op ops.Op) (*Node, error) {
	removed := map[NodeID]bool{}
	for _, id := range ids {
		if g.Node(id) == nil {
			return nil, fmt.Errorf("graph: ReplaceNodes: unknown node %d", id)
		}
		removed[id] = true
	}

	// Collect internal outputs and external inputs of the removed set.
	internalOut := map[TensorID]bool{}
	for _, n := range g.Nodes {
		if !removed[n.ID] {
			continue
		}
		for _, out := range n.Outputs {
			internalOut[out] = true
		}
	}
	var extInputs []TensorID
	seenIn := map[TensorID]bool{}
	insertPos := -1
	for i, n := range g.Nodes {
		if !removed[n.ID] {
			continue
		}
		if insertPos < 0 {
			insertPos = i
		}
		for _, in := range n.Inputs {
			if !internalOut[in] && !seenIn[in] {
				seenIn[in] = true
				extInputs = append(extInputs, in)
			}
		}
	}
	if insertPos < 0 {
		return nil, fmt.Errorf("graph: ReplaceNodes: empty node set")
	}

	// Externally consumed outputs, in production order.
	consumed := map[TensorID]bool{}
	for _, n := range g.Nodes {
		if removed[n.ID] {
			continue
		}
		for _, in := range n.Inputs {
			if internalOut[in] {
				consumed[in] = true
			}
		}
	}
	var extOutputs []TensorID
	for _, n := range g.Nodes {
		if !removed[n.ID] {
			continue
		}
		for _, out := range n.Outputs {
			if consumed[out] {
				extOutputs = append(extOutputs, out)
			}
		}
	}

	outMetas := op.Outputs(g.InputMetas(nil, extInputs))
	if len(outMetas) < len(extOutputs) {
		return nil, fmt.Errorf("graph: ReplaceNodes: op %s produces %d outputs but %d are consumed externally",
			op.Name(), len(outMetas), len(extOutputs))
	}

	fused := &Node{ID: g.nextNode, Op: op, Inputs: extInputs}
	g.nextNode++
	for i, m := range outMetas {
		if i < len(extOutputs) {
			id := extOutputs[i] // reuse the consumed tensor IDs
			g.shapes[id], g.producers[id] = m, fused.ID
			fused.Outputs = append(fused.Outputs, id)
		} else {
			fused.Outputs = append(fused.Outputs, g.newTensor(m, fused.ID))
		}
	}

	// Drop removed nodes, garbage-collect their unconsumed outputs, and
	// splice the fused node at the first removed position.
	var nodes []*Node
	for i, n := range g.Nodes {
		if i == insertPos {
			nodes = append(nodes, fused)
		}
		if removed[n.ID] {
			for _, out := range n.Outputs {
				if !consumed[out] {
					g.dropTensor(out)
				}
			}
			continue
		}
		nodes = append(nodes, n)
	}
	g.Nodes = nodes
	if err := g.Propagate(); err != nil {
		return nil, err
	}
	return fused, nil
}

// RemoveNode deletes a node whose outputs are unused (e.g. dropping a
// layer during iterative tuning). It fails if any output has a consumer.
//
//lint:allow unlinked contract-test helper: internal/engine/bind_test.go edits a clone with it
func (g *Graph) RemoveNode(id NodeID) error {
	n := g.Node(id)
	if n == nil {
		return fmt.Errorf("graph: RemoveNode: unknown node %d", id)
	}
	outs := map[TensorID]bool{}
	for _, o := range n.Outputs {
		outs[o] = true
	}
	for _, other := range g.Nodes {
		if other.ID == id {
			continue
		}
		for _, in := range other.Inputs {
			if outs[in] {
				return fmt.Errorf("graph: RemoveNode: node %d output %d still consumed by node %d",
					id, in, other.ID)
			}
		}
	}
	var nodes []*Node
	for _, other := range g.Nodes {
		if other.ID == id {
			continue
		}
		nodes = append(nodes, other)
	}
	g.Nodes = nodes
	for o := range outs {
		g.dropTensor(o)
	}
	return nil
}

// AssignStreams places independent branches on distinct GPU streams. Two
// nodes are independent when neither transitively consumes the other's
// outputs. The transform greedily colors each node: the first consumer
// of a producer inherits its stream, later consumers (fan-out branches)
// get fresh streams, and join points collapse onto the smallest incoming
// stream — a simple but effective heuristic for DLRM's parallel
// embedding/MLP branches. It returns the number of streams used.
//
//lint:allow unlinked contract-test helper: internal/engine/bind_test.go edits a clone with it
func (g *Graph) AssignStreams() int {
	streamOf := map[NodeID]int{}
	branched := map[NodeID]bool{} // producer already has a same-stream consumer
	next := 0
	fresh := func() int {
		s := next
		next++
		return s
	}
	for _, n := range g.Nodes {
		deps := g.Deps(n)
		switch len(deps) {
		case 0:
			n.Stream = fresh()
		case 1:
			d := deps[0]
			if branched[d] {
				// Fan-out: a sibling already continues the producer's
				// stream, so this branch runs concurrently on a new one.
				n.Stream = fresh()
			} else {
				n.Stream = streamOf[d]
				branched[d] = true
			}
		default:
			// Join points collapse onto the smallest incoming stream.
			s := streamOf[deps[0]]
			for _, d := range deps[1:] {
				if streamOf[d] < s {
					s = streamOf[d]
				}
			}
			n.Stream = s
		}
		streamOf[n.ID] = n.Stream
	}
	if next == 0 {
		next = 1
	}
	return next
}
