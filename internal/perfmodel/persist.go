package perfmodel

import (
	"encoding/json"
	"fmt"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/mlp"
)

// This file serializes calibrated kernel-model registries. Together with
// the overhead database, a serialized registry is the complete asset set
// of Fig. 3's prediction track: calibrate once, predict everywhere — the
// paper's "shared database for large-scale prediction".

// wireModel is the tagged union of serialized kernel models.
type wireModel struct {
	Type string          `json:"type"` // roofline | el | mlp
	Data json.RawMessage `json:"data"`
}

type wireEL struct {
	Name     string  `json:"name"`
	GPU      string  `json:"gpu"`
	DRAMBW   float64 `json:"dram_bw"`
	L2BW     float64 `json:"l2_bw"`
	Enhanced bool    `json:"enhanced"`
}

type wireMLP struct {
	Name     string            `json:"name"`
	Config   mlp.Config        `json:"config"`
	BasePeak float64           `json:"base_peak"`
	BaseBW   float64           `json:"base_bw"`
	Nets     []json.RawMessage `json:"nets"`
}

type wireRegistry struct {
	Device string               `json:"device"`
	Models map[string]wireModel `json:"models"` // kernel kind string -> model
}

// SaveRegistry serializes a calibrated registry to compact JSON.
func SaveRegistry(r *Registry) ([]byte, error) {
	out := wireRegistry{Device: r.Device, Models: map[string]wireModel{}}
	for _, kind := range r.Kinds() {
		m := r.Model(kind)
		var (
			typ string
			val any
		)
		switch mm := m.(type) {
		case Roofline:
			typ, val = "roofline", mm
		case *ELHeuristic:
			typ, val = "el", wireEL{
				Name: mm.ModelName, GPU: mm.GPU.Name,
				DRAMBW: mm.DRAMBW, L2BW: mm.L2BW, Enhanced: mm.Enhanced,
			}
		case *MLPModel:
			w := wireMLP{Name: mm.ModelName, Config: mm.Config, BasePeak: mm.BasePeak, BaseBW: mm.BaseBW}
			for _, n := range mm.Nets {
				raw, err := json.Marshal(n)
				if err != nil {
					return nil, err
				}
				w.Nets = append(w.Nets, raw)
			}
			typ, val = "mlp", w
		default:
			return nil, fmt.Errorf("perfmodel: cannot serialize model type %T", m)
		}
		data, err := json.Marshal(val)
		if err != nil {
			return nil, err
		}
		out.Models[kind.String()] = wireModel{Type: typ, Data: data}
	}
	return json.Marshal(out)
}

// LoadRegistry restores a registry serialized by SaveRegistry. A model
// that cannot price every kernel of the kind it is filed under is
// rejected with the rest: an embedding heuristic under another kind, or
// a network whose input is not the kind's feature width or whose output
// is not one value.
func LoadRegistry(data []byte) (*Registry, error) {
	var w wireRegistry
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	reg := NewRegistry(w.Device)
	for kindName, wm := range w.Models {
		kind, err := kindFromString(kindName)
		if err != nil {
			return nil, err
		}
		switch wm.Type {
		case "roofline":
			var m Roofline
			if err := json.Unmarshal(wm.Data, &m); err != nil {
				return nil, err
			}
			reg.Register(kind, m)
		case "el":
			var e wireEL
			if err := json.Unmarshal(wm.Data, &e); err != nil {
				return nil, err
			}
			if kind != kernels.KindEmbeddingFwd && kind != kernels.KindEmbeddingBwd {
				return nil, fmt.Errorf("perfmodel: embedding model %s filed under %s", e.Name, kind)
			}
			p, err := hw.ByName(e.GPU)
			if err != nil {
				return nil, fmt.Errorf("perfmodel: embedding model references %w", err)
			}
			reg.Register(kind, &ELHeuristic{
				ModelName: e.Name, GPU: p.GPU,
				DRAMBW: e.DRAMBW, L2BW: e.L2BW, Enhanced: e.Enhanced,
			})
		case "mlp":
			var mw wireMLP
			if err := json.Unmarshal(wm.Data, &mw); err != nil {
				return nil, err
			}
			m := &MLPModel{ModelName: mw.Name, Config: mw.Config, BasePeak: mw.BasePeak, BaseBW: mw.BaseBW}
			for _, raw := range mw.Nets {
				var n mlp.Net
				if err := json.Unmarshal(raw, &n); err != nil {
					return nil, err
				}
				if in, out := n.Dims(); in != kernels.FeatureWidth(kind) || out != 1 {
					return nil, fmt.Errorf("perfmodel: mlp model %s for %s has a %d-in, %d-out network, want %d-in, 1-out", mw.Name, kind, in, out, kernels.FeatureWidth(kind))
				}
				m.Nets = append(m.Nets, &n)
			}
			if len(m.Nets) == 0 {
				return nil, fmt.Errorf("perfmodel: mlp model %s has no networks", mw.Name)
			}
			reg.Register(kind, m)
		default:
			return nil, fmt.Errorf("perfmodel: unknown model type %q", wm.Type)
		}
	}
	return reg, nil
}

func kindFromString(s string) (kernels.Kind, error) {
	for _, k := range kernels.Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("perfmodel: unknown kernel kind %q", s)
}
