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

	outMetas := op.AppendOutputs(nil, g.InputMetas(nil, extInputs))
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
