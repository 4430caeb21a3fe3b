package perfmodel

import (
	"fmt"

	"dlrmperf/internal/kernels"
)

// This file serializes calibrated kernel-model registries. Together with
// the overhead database, a serialized registry is the complete asset set
// of Fig. 3's prediction track: calibrate once, predict everywhere — the
// paper's "shared database for large-scale prediction".

// WireRegistry is a registry as it serializes: its device and each
// kind's Model, keyed by the kind's name. It is what `dlrmperf-train -o`
// writes, and an asset payload holds it as it is.
type WireRegistry struct {
	Device string            `json:"device"`
	Models map[string]*Model `json:"models"`
}

// Wire returns r as it serializes. Only *Model values serialize; a
// registry holding any other KernelModel is refused.
func (r *Registry) Wire() (WireRegistry, error) {
	w := WireRegistry{Device: r.Device, Models: make(map[string]*Model, len(r.models))}
	for _, kind := range r.Kinds() {
		m, ok := r.Model(kind).(*Model)
		if !ok {
			return WireRegistry{}, fmt.Errorf("perfmodel: cannot serialize model type %T", r.Model(kind))
		}
		w.Models[kind.String()] = m
	}
	return w, nil
}

// Registry restores the registry w describes. A model that would panic
// on, or price at +Inf or NaN, a kernel of the kind it is filed under is
// rejected with the rest: an unknown form, a bandwidth that is not
// positive, a negative latency or peak, an embedding heuristic under
// another kind or without its SM count and L2 size, a network that
// fails mlp.Net.Check, or a network whose input is not the kind's
// feature width or whose output is not one value.
func (w WireRegistry) Registry() (*Registry, error) {
	reg := NewRegistry(w.Device)
	for kindName, m := range w.Models {
		kind, err := kindFromString(kindName)
		if err != nil {
			return nil, err
		}
		if err := m.check(kind); err != nil {
			return nil, err
		}
		reg.Register(kind, m)
	}
	return reg, nil
}

// check reports why m cannot price kernels of kind, or nil.
func (m *Model) check(kind kernels.Kind) error {
	if m == nil {
		return fmt.Errorf("perfmodel: null model for %s", kind)
	}
	var ok bool
	switch m.Form {
	case FormRoofline:
		ok = m.BW > 0 && m.Lat >= 0 && m.Peak >= 0
	case FormEL:
		if !isEmbedding(kind) {
			return fmt.Errorf("perfmodel: embedding model %s filed under %s", m.Name, kind)
		}
		ok = m.DRAMBW > 0 && m.NumSMs > 0 && m.L2Size > 0 && (!m.Enhanced || m.L2BW > 0)
	case FormMLP:
		for _, n := range m.Nets {
			if n == nil {
				return fmt.Errorf("perfmodel: mlp model %s has a null network", m.Name)
			}
			if err := n.Check(); err != nil {
				return fmt.Errorf("perfmodel: mlp model %s for %s: %w", m.Name, kind, err)
			}
			if in, out := n.Sizes[0], n.Sizes[len(n.Sizes)-1]; in != kernels.FeatureWidth(kind) || out != 1 {
				return fmt.Errorf("perfmodel: mlp model %s for %s has a %d-in, %d-out network, want %d-in, 1-out", m.Name, kind, in, out, kernels.FeatureWidth(kind))
			}
		}
		if len(m.Nets) == 0 {
			return fmt.Errorf("perfmodel: mlp model %s has no networks", m.Name)
		}
		ok = m.BaseBW > 0 && m.BasePeak >= 0
	default:
		return fmt.Errorf("perfmodel: unknown model form %q", m.Form)
	}
	if !ok {
		return fmt.Errorf("perfmodel: %s model %s for %s has a bandwidth, SM count or L2 size that is not positive, or a negative latency or peak", m.Form, m.Name, kind)
	}
	return nil
}

func kindFromString(s string) (kernels.Kind, error) {
	for _, k := range kernels.Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("perfmodel: unknown kernel kind %q", s)
}
