// Package models is the workload zoo: builders that produce full
// training-iteration execution graphs (forward, backward, optimizer) for
// the three open-source DLRM configurations of Table III, plus the
// ResNet-50, Inception-V3, and Transformer models used by Fig. 1 and the
// Fig. 10 cross-tool comparison.
package models

import (
	"fmt"

	"dlrmperf/internal/graph"
	"dlrmperf/internal/ops"
)

// Model pairs an execution graph with workload identity.
type Model struct {
	Name  string
	Graph *graph.Graph
	// Params is the total trainable dense parameter count (embedding
	// tables excluded; their updates are fused into the lookup backward).
	Params int64
}

// ResizeBatch rebuilds the graph for a new batch size in place.
func (m *Model) ResizeBatch(b int64) error {
	if b <= 0 {
		return errBatch(b)
	}
	return m.Graph.ResizeBatch(b)
}

func errBatch(b int64) error { return fmt.Errorf("models: batch size %d must be positive", b) }

// WithBatch returns the model bound to batch size b: equal to building
// it at b, but sharing m's graph structure (graph.Graph.WithBatch), so
// both are read-only from then on.
func (m *Model) WithBatch(b int64) (*Model, error) {
	if b <= 0 {
		return nil, errBatch(b)
	}
	g, err := m.Graph.WithBatch(b)
	if err != nil {
		return nil, err
	}
	if g == m.Graph {
		return m, nil
	}
	return &Model{Name: m.Name, Graph: g, Params: m.Params}, nil
}

// Clone deep-copies the model.
func (m *Model) Clone() *Model {
	return &Model{Name: m.Name, Graph: m.Graph.Clone(), Params: m.Params}
}

// Builder names usable with Build.
const (
	NameDLRMDefault = "DLRM_default"
	NameDLRMMLPerf  = "DLRM_MLPerf"
	NameDLRMDDP     = "DLRM_DDP"
	NameResNet50    = "resnet50"
	NameInceptionV3 = "inception_v3"
	NameTransformer = "Transformer"
)

// Build constructs a named model at the given batch size.
func Build(name string, batch int64) (*Model, error) {
	switch name {
	case NameResNet50:
		return BuildResNet50(batch), nil
	case NameInceptionV3:
		return BuildInceptionV3(batch), nil
	case NameTransformer:
		return BuildTransformer(batch), nil
	}
	cfg, err := DLRMConfigFor(name, batch)
	if err != nil {
		return nil, fmt.Errorf("models: unknown model %q", name)
	}
	return BuildDLRM(cfg)
}

// DLRMNames returns the three DLRM workload names in the paper's order.
func DLRMNames() []string {
	return []string{NameDLRMDefault, NameDLRMMLPerf, NameDLRMDDP}
}

// DLRMConfigFor returns the named DLRM family's Table III configuration
// at the given batch size — the template scenario builders specialize
// (custom table populations, per-device shards) before BuildDLRM.
func DLRMConfigFor(name string, batch int64) (DLRMConfig, error) {
	switch name {
	case NameDLRMDefault:
		return DLRMDefaultConfig(batch), nil
	case NameDLRMMLPerf:
		return DLRMMLPerfConfig(batch), nil
	case NameDLRMDDP:
		return DLRMDDPConfig(batch), nil
	}
	return DLRMConfig{}, fmt.Errorf("models: %q is not a DLRM family", name)
}

// DenseParams returns the dense (MLP) trainable parameter count of the
// configuration — the all-reduce payload of hybrid-parallel training,
// identical on every device regardless of embedding sharding.
func (c DLRMConfig) DenseParams() int64 { return sum(dlrmParamSizes(c)) }

func sum(xs []int64) (total int64) {
	for _, x := range xs {
		total += x
	}
	return total
}

// mlpTail holds the saved tensors needed to emit a linear+ReLU layer's
// backward ops.
type mlpLayer struct {
	x      graph.TensorID // input activation (saved for wgrad)
	out    graph.TensorID // layer output (after activation)
	hasAct bool
	outDim int64
	inDim  int64
}

// buildMLP emits linear(+ReLU) layers; dims[0] is the input width of x.
// If actLast is false the final layer has no activation.
func buildMLP(g *graph.Graph, x graph.TensorID, dims []int64, actLast bool) (graph.TensorID, []mlpLayer) {
	var layers []mlpLayer
	for i := 1; i < len(dims); i++ {
		in := x
		y := g.Apply(ops.Linear{Out: dims[i]}, x)[0]
		hasAct := actLast || i < len(dims)-1
		if hasAct {
			y = g.Apply(ops.ReLU(), y)[0]
		}
		layers = append(layers, mlpLayer{x: in, out: y, hasAct: hasAct, outDim: dims[i], inDim: dims[i-1]})
		x = y
	}
	return x, layers
}

// backwardMLP emits the backward ops for layers (in reverse) given the
// gradient flowing into the last layer's output, returning the gradient
// with respect to the MLP input.
func backwardMLP(g *graph.Graph, grad graph.TensorID, layers []mlpLayer) graph.TensorID {
	for i := len(layers) - 1; i >= 0; i-- {
		l := layers[i]
		if l.hasAct {
			grad = g.Apply(ops.ReLUBackward(), grad)[0]
		}
		outs := g.Apply(ops.LinearBackward{}, grad, l.x)
		grad = outs[0]
		g.Apply(ops.AccumulateGrad(), outs[1])
	}
	return grad
}
