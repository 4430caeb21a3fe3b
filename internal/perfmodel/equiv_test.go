package perfmodel

import (
	"math"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/microbench"
	"dlrmperf/internal/mlp"
	"dlrmperf/internal/xrand"
)

// The references below are the kernel-model arithmetic as it stood when
// each form was its own type (Roofline, ELHeuristic, MLPModel), kept
// verbatim apart from their names. TestModelMatchesFormTypes holds
// (*Model).Predict to them bit for bit.

type refRoofline struct{ BW, Lat, Peak float64 }

func (r refRoofline) Predict(k *kernels.Kernel) float64 {
	read, write := k.Bytes()
	t := r.Lat + (read+write)/r.BW
	if r.Peak > 0 {
		if tc := k.FLOPs() / r.Peak; tc > t {
			t = tc
		}
	}
	return t
}

type refEL struct {
	GPU          hw.GPU
	DRAMBW, L2BW float64
	Enhanced     bool
}

func (m *refEL) HitRate(e kernels.Kernel) float64 {
	if e.E <= 0 {
		return 0
	}
	numTables := float64(kernels.RowsPerBlock) * float64(m.GPU.NumSMs) / float64(e.B)
	if numTables < 1 {
		numTables = 1
	}
	if t := float64(e.T); numTables > t {
		numTables = t
	}
	rowBytes := 4 * float64(e.D)
	cached := float64(m.GPU.L2Size) / (numTables * rowBytes)
	if cached > float64(e.E) {
		cached = float64(e.E)
	}
	if cached < float64(e.L) {
		return 0
	}
	logp := 0.0
	for i := int64(0); i < e.L; i++ {
		logp += math.Log((cached - float64(i)) / (float64(e.E) - float64(i)))
	}
	return math.Exp(logp)
}

func refELTerms(e kernels.Kernel) (fixed, idx, weights, out float64) {
	rowBytes := float64((4*e.D + 31) / 32 * 32)
	fixed = 32 + 64
	idx = float64((4*e.L + 31) / 32 * 32)
	if e.Backward() {
		weights = float64((2*4*e.L*e.D + 31) / 32 * 32)
	} else {
		weights = float64(e.L) * rowBytes
	}
	out = rowBytes
	return fixed, idx, weights, out
}

func (m *refEL) Predict(k *kernels.Kernel) float64 {
	e := *k
	fixed, idx, weights, out := refELTerms(e)
	warps := float64(e.B) * float64(e.T)
	if !m.Enhanced {
		return warps * (fixed + idx + weights + out) / m.DRAMBW
	}
	p := m.HitRate(e)
	trL2 := fixed + p*weights
	trDRAM := idx + out + (1-p)*weights
	return warps * (trDRAM/m.DRAMBW + trL2/m.L2BW)
}

type refBaseline func(k *kernels.Kernel) float64

func refRooflineBaseline(peak, bw float64) refBaseline {
	return func(k *kernels.Kernel) float64 {
		read, write := k.Bytes()
		t := (read + write) / bw
		if peak > 0 {
			if tc := k.FLOPs() / peak; tc > t {
				t = tc
			}
		}
		if t < 0.5 {
			t = 0.5
		}
		return t
	}
}

type refMLP struct {
	Nets             []*mlp.Net
	BasePeak, BaseBW float64
}

func (m *refMLP) Predict(k *kernels.Kernel) float64 {
	var buf [8]float64
	x := kernels.AppendFeatures(buf[:0], k)
	s := 0.0
	for _, n := range m.Nets {
		s += n.Predict(x)
	}
	return refRooflineBaseline(m.BasePeak, m.BaseBW)(k) * math.Exp(s/float64(len(m.Nets)))
}

// fastTierOptions are the serving fast tier's calibration options
// (dlrmperf.FastCalibConfig): eighth-size sweeps, one tiny network per
// ML-based family.
func fastTierOptions() CalibOptions {
	sizes := map[kernels.Kind]int{}
	for k, n := range microbench.DefaultSweepSizes() {
		sizes[k] = n / 8
	}
	return CalibOptions{
		SweepSizes: sizes, Ensemble: 1,
		MLPConfig: mlp.Config{HiddenLayers: 1, Width: 16, Optimizer: mlp.Adam, LR: 3e-3, Epochs: 10, BatchSize: 64},
	}
}

// TestModelMatchesFormTypes: on a fast-tier calibration of every
// device, each calibrated model prices a microbenchmark sweep of its
// kind to the same bits as the reference of its form — the embedding
// models in their enhanced and plain variants both.
func TestModelMatchesFormTypes(t *testing.T) {
	for _, p := range hw.All() {
		reg := Calibrate(p.GPU, 2022, fastTierOptions(), 0).Registry
		for _, kind := range reg.Kinds() {
			m := reg.Model(kind).(*Model)
			variants := []*Model{m}
			var refs []KernelModel
			switch m.Form {
			case FormRoofline:
				refs = append(refs, refRoofline{BW: m.BW, Lat: m.Lat, Peak: m.Peak})
			case FormEL:
				plain := *m
				plain.Enhanced = false
				variants = append(variants, &plain)
				for _, v := range variants {
					refs = append(refs, &refEL{GPU: p.GPU, DRAMBW: v.DRAMBW, L2BW: v.L2BW, Enhanced: v.Enhanced})
				}
			case FormMLP:
				refs = append(refs, &refMLP{Nets: m.Nets, BasePeak: m.BasePeak, BaseBW: m.BaseBW})
			default:
				t.Fatalf("%s %s: unknown form %q", p.GPU.Name, kind, m.Form)
			}
			sweep := microbench.GenerateKernels(kind, 200, xrand.New(uint64(kind)+1))
			for i, v := range variants {
				for j := range sweep {
					k := &sweep[j]
					if got, want := v.Predict(k), refs[i].Predict(k); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %s (%s, enhanced %t): %s priced %v, reference %v", p.GPU.Name, kind, v.Form, v.Enhanced, k, got, want)
					}
				}
			}
		}
	}
}
