package graph

import (
	"fmt"

	"dlrmperf/internal/ops"
)

// This file implements the execution-graph transform of Section V-A's
// op-fusion case study (Fig. 11): replacing a set of nodes by one fused
// node.

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
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if !removed[n.ID] {
			continue
		}
		for _, out := range g.Outputs(n) {
			internalOut[out] = true
		}
	}
	var extInputs []TensorID
	seenIn := map[TensorID]bool{}
	insertPos := -1
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if !removed[n.ID] {
			continue
		}
		if insertPos < 0 {
			insertPos = i
		}
		for _, in := range g.Inputs(n) {
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
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if removed[n.ID] {
			continue
		}
		for _, in := range g.Inputs(n) {
			if internalOut[in] {
				consumed[in] = true
			}
		}
	}
	var extOutputs []TensorID
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if !removed[n.ID] {
			continue
		}
		for _, out := range g.Outputs(n) {
			if consumed[out] {
				extOutputs = append(extOutputs, out)
			}
		}
	}

	outMetas := op.AppendOutputs(nil, g.InputMetas(nil, extInputs))
	if len(outMetas) < len(extOutputs) {
		return nil, fmt.Errorf("graph: ReplaceNodes: op %s produces %d outputs but %d are consumed externally",
			op.Name(), len(outMetas), len(extOutputs))
	}

	fusedID := g.nextNode
	g.nextNode++
	fusedOut := make([]TensorID, len(outMetas))
	for i, m := range outMetas {
		if i < len(extOutputs) {
			id := extOutputs[i] // reuse the consumed tensor IDs
			g.shapes[id], g.producers[id] = m, fusedID
			fusedOut[i] = id
		} else {
			fusedOut[i] = g.newTensor(m, fusedID)
		}
	}

	// Drop removed nodes, garbage-collect their unconsumed outputs, and
	// splice the fused node at the first removed position, laying the
	// kept nodes' edges out in a fresh arena.
	nodes := make([]Node, 0, len(g.Nodes)-len(removed)+1)
	edges := make([]TensorID, 0, len(g.edges))
	add := func(n Node, in, out []TensorID) {
		n.in = int32(len(edges))
		edges = append(edges, in...)
		n.out = int32(len(edges))
		edges = append(edges, out...)
		n.end = int32(len(edges))
		nodes = append(nodes, n)
	}
	fusedAt := 0
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if i == insertPos {
			fusedAt = len(nodes)
			add(Node{ID: fusedID, op: int32(len(g.ops))}, extInputs, fusedOut)
		}
		if removed[n.ID] {
			for _, out := range g.Outputs(n) {
				if !consumed[out] {
					g.dropTensor(out)
				}
			}
			continue
		}
		add(*n, g.Inputs(n), g.Outputs(n))
	}
	g.Nodes, g.edges, g.ops = nodes, edges, append(g.ops, op)
	if err := g.Propagate(); err != nil {
		return nil, err
	}
	return &g.Nodes[fusedAt], nil
}
