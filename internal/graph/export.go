package graph

import (
	"encoding/json"

	"dlrmperf/internal/kernels"
)

// Export is the serialized execution graph: what the paper's observer
// writes out. It freezes the shape-derived kernels, so a reader needs
// neither the op registry nor tensor shapes to see what each op
// launches.
type Export struct {
	Nodes []ExportNode `json:"nodes"`
}

// ExportNode is one operator in the serialized graph.
type ExportNode struct {
	ID      int               `json:"id"`
	Name    string            `json:"name"`
	Stream  int               `json:"stream"`
	Inputs  []int             `json:"inputs"`
	Outputs []int             `json:"outputs"`
	Kernels []json.RawMessage `json:"kernels,omitempty"`
	Deps    []int             `json:"deps"`
}

// ToExport freezes the graph into its serializable form.
func (g *Graph) ToExport() (*Export, error) {
	e := &Export{}
	for _, n := range g.Nodes {
		en := ExportNode{
			ID:     int(n.ID),
			Name:   n.Op.Name(),
			Stream: n.Stream,
		}
		for _, in := range n.Inputs {
			en.Inputs = append(en.Inputs, int(in))
		}
		for _, out := range n.Outputs {
			en.Outputs = append(en.Outputs, int(out))
		}
		for _, d := range g.Deps(n) {
			en.Deps = append(en.Deps, int(d))
		}
		for _, k := range g.NodeKernels(n) {
			raw, err := kernels.MarshalKernel(k)
			if err != nil {
				return nil, err
			}
			en.Kernels = append(en.Kernels, raw)
		}
		e.Nodes = append(e.Nodes, en)
	}
	return e, nil
}

// MarshalJSON renders the graph in its export form.
func (g *Graph) MarshalJSON() ([]byte, error) {
	e, err := g.ToExport()
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(e, "", "  ")
}
