// Package perfmodel implements the paper's kernel performance models
// (Section III-B): heuristic models for kernels with accessible or
// trivial structure — the batched embedding lookup (plain and enhanced
// with L2 hit-rate estimation) and roofline models for element-wise,
// concat, and memcpy kernels — and ML-based MLP regressors for opaque
// kernels (cuBLAS GEMM, JIT transpose, tril, conv).
//
// Models are calibrated exclusively from microbenchmark datasets: peak
// bandwidths are corrected to the maximum measured bandwidth (the paper's
// protocol) and ML models are trained on log-transformed shapes/times.
// Nothing in this package touches the ground-truth cost functions.
package perfmodel

import (
	"fmt"
	"math"

	"dlrmperf/internal/kernels"
	"dlrmperf/internal/microbench"
	"dlrmperf/internal/mlp"
	"dlrmperf/internal/stats"
)

// KernelModel predicts the execution time in µs of kernels of one
// family. A calibration registers *Model values; the interface is the
// seam a registry takes any other pricing through (test fakes, oracle
// kernel times).
type KernelModel interface {
	Predict(k *kernels.Kernel) float64
}

// Form names the shape of a kernel model.
type Form string

// The three forms of the paper's kernel models.
const (
	// FormRoofline is t = max(FLOP/Peak, Lat + bytes/BW).
	FormRoofline Form = "roofline"
	// FormEL is the embedding-lookup heuristic (embedding.go).
	FormEL Form = "el"
	// FormMLP is an ensemble of networks predicting the log residual
	// to a spec-sheet roofline baseline.
	FormMLP Form = "mlp"
)

// Model is one calibrated kernel model: a form and the fields that form
// reads. A registry serializes its models as they are, so a new form is
// a tag, its fields, and one case in Predict and in check.
type Model struct {
	Form Form   `json:"form"`
	Name string `json:"name"`

	// Roofline: the classic model with the corrected (measured)
	// bandwidth BW in B/µs, used for element-wise, concat, memcpy and
	// batch-norm kernels. Following the paper's protocol of correcting
	// the peak bandwidth to the maximum measured bandwidth, calibration
	// also measures the fixed launch/DMA latency Lat in µs that
	// dominates small transfers. Peak is the corrected compute
	// throughput in FLOP/µs (0: memory-bound only).
	BW   float64 `json:"bw,omitempty"`
	Lat  float64 `json:"lat,omitempty"`
	Peak float64 `json:"peak,omitempty"`

	// EL: the corrected DRAM and L2 bandwidths in B/µs, whether the L2
	// hit-rate estimation is on, and the public spec values HitRate
	// reads (SM count, L2 bytes), as the paper's model uses.
	DRAMBW   float64 `json:"dram_bw,omitempty"`
	L2BW     float64 `json:"l2_bw,omitempty"`
	Enhanced bool    `json:"enhanced,omitempty"`
	NumSMs   int     `json:"num_sms,omitempty"`
	L2Size   int64   `json:"l2_size,omitempty"`

	// MLP: the ensemble, the configuration its members trained, and
	// the (peak FLOP/µs, bandwidth B/µs) of the roofline baseline their
	// residuals are relative to.
	Nets     []*mlp.Net `json:"nets,omitempty"`
	Config   mlp.Config `json:"config,omitzero"`
	BasePeak float64    `json:"base_peak,omitempty"`
	BaseBW   float64    `json:"base_bw,omitempty"`
}

// Predict returns the predicted time of k in µs.
//
// The walk reaches it through the KernelModel interface, which has no
// static call edge, so it is a root by its own directive.
//
//lint:hotpath root
func (m *Model) Predict(k *kernels.Kernel) float64 {
	switch m.Form {
	case FormEL:
		return m.predictEL(k)
	case FormMLP:
		// Averaging the log-residual predictions of independently
		// seeded networks reduces the fit variance on the
		// quantization-heavy efficiency surfaces (GEMM wave boundaries,
		// transpose alignment cliffs).
		var buf [8]float64 // the widest feature vector, Conv's
		x := kernels.AppendFeatures(buf[:0], k)
		s := 0.0
		for _, n := range m.Nets {
			s += n.Predict(x)
		}
		return m.base(k) * math.Exp(s/float64(len(m.Nets)))
	}
	// FormRoofline.
	read, write := k.Bytes()
	t := m.Lat + (read+write)/m.BW
	if m.Peak > 0 {
		if tc := k.FLOPs() / m.Peak; tc > t {
			t = tc
		}
	}
	return t
}

// CalibrateRoofline fits t = lat + bytes/bw to a dataset by weighted
// least squares (weights 1/t^2, i.e. minimizing relative error), which
// simultaneously recovers the corrected peak bandwidth from the large
// transfers and the fixed latency from the small ones.
func CalibrateRoofline(name string, ds *microbench.Dataset, peakFLOPs float64) *Model {
	// Weighted least squares for t = a + b*x with w = 1/t^2.
	var sw, swx, swxx, swt, swxt float64
	for _, s := range ds.Samples {
		if s.Time <= 0 {
			continue
		}
		read, write := s.Kernel.Bytes()
		x := read + write
		w := 1 / (s.Time * s.Time)
		sw += w
		swx += w * x
		swxx += w * x * x
		swt += w * s.Time
		swxt += w * x * s.Time
	}
	det := sw*swxx - swx*swx
	r := &Model{Form: FormRoofline, Name: name, Peak: peakFLOPs}
	if det == 0 || sw == 0 {
		r.BW = 1
		return r
	}
	a := (swxx*swt - swx*swxt) / det
	b := (sw*swxt - swx*swt) / det
	if a < 0 {
		a = 0
		// Refit slope through the origin.
		b = swxt / swxx
	}
	if b <= 0 {
		// Degenerate: fall back to best measured bandwidth.
		var bws []float64
		for _, s := range ds.Samples {
			read, write := s.Kernel.Bytes()
			if s.Time > 0 {
				bws = append(bws, (read+write)/s.Time)
			}
		}
		r.BW = stats.Percentile(bws, 98)
		r.Lat = 0
		return r
	}
	r.Lat = a
	r.BW = 1 / b
	return r
}

// --- ML-based ------------------------------------------------------------------

// base returns the MLP form's analytic time scale of k (µs): the
// spec-sheet roofline of (BasePeak, BaseBW). ML-based models are trained
// on the *residual* log(measured/base): the baseline carries the
// many-orders-of-magnitude size dependence, and the network only has to
// learn the bounded efficiency surface (tile and wave quantization,
// alignment penalties, shape quirks). This keeps the model unbiased
// across the size range and extrapolation-safe.
func (m *Model) base(k *kernels.Kernel) float64 {
	read, write := k.Bytes()
	t := (read + write) / m.BaseBW
	if m.BasePeak > 0 {
		if tc := k.FLOPs() / m.BasePeak; tc > t {
			t = tc
		}
	}
	if t < 0.5 {
		t = 0.5 // launch floor keeps the residual bounded for tiny kernels
	}
	return t
}

// residualTargets converts a dataset into (features, log residual to
// m's baseline) pairs. The feature rows are sub-slices of one block.
func (m *Model) residualTargets(ds *microbench.Dataset) ([][]float64, []float64) {
	X, Y := make([][]float64, len(ds.Samples)), make([]float64, len(ds.Samples))
	feats := make([]float64, 0, kernels.FeatureWidth(ds.Kind)*len(ds.Samples))
	for i, s := range ds.Samples {
		t := s.Time
		if t <= 0 {
			t = 1e-6
		}
		row := len(feats)
		feats = kernels.AppendFeatures(feats, s.Kernel)
		X[i], Y[i] = feats[row:len(feats):len(feats)], math.Log(t/m.base(s.Kernel))
	}
	return X, Y
}

// memberStride decorrelates the RNG streams of ensemble members within
// one family: member m of a family seeded s trains from s + m*memberStride.
const memberStride = 104729

// memberSeed derives the training seed of one ensemble member from its
// family's calibration seed.
func memberSeed(familySeed uint64, member int) uint64 {
	return familySeed + uint64(member)*memberStride
}

// FitMLP sets up an ensemble of opt.Ensemble networks on a dataset. It
// returns the model, whose networks are nil until trained, and train,
// which fits member i into its slot. basePeak/baseBW parameterize the
// roofline the residual targets are relative to. With an empty
// opt.Search every member trains opt.MLPConfig; otherwise FitMLP runs
// the Table II grid search over opt.Search, its winning network is
// member 0 (train(0) does nothing), and the other members train the
// winner. Member i draws from memberSeed(seed, i), so the model is
// bit-identical whatever order the members train in, concurrently or
// not.
func FitMLP(name string, ds *microbench.Dataset, basePeak, baseBW float64, opt CalibOptions, seed uint64) (*Model, func(member int)) {
	opt = opt.withDefaults()
	m := &Model{Form: FormMLP, Name: name, Config: opt.MLPConfig, BasePeak: basePeak, BaseBW: baseBW, Nets: make([]*mlp.Net, opt.Ensemble)}
	X, Y := m.residualTargets(ds)
	if len(opt.Search.Configs()) > 0 {
		m.Nets[0], m.Config, _ = mlp.GridSearch(X, Y, opt.Search, seed)
	}
	return m, func(i int) {
		if m.Nets[i] == nil {
			m.Nets[i] = mlp.Train(X, Y, m.Config, memberSeed(seed, i))
		}
	}
}

// --- Evaluation ------------------------------------------------------------------

// Evaluate computes the Table IV error statistics of model on a dataset.
func Evaluate(model KernelModel, ds *microbench.Dataset) stats.ErrorSummary {
	pred, actual := make([]float64, len(ds.Samples)), make([]float64, len(ds.Samples))
	for i, s := range ds.Samples {
		pred[i], actual[i] = model.Predict(s.Kernel), s.Time
	}
	return stats.Summarize(pred, actual)
}

// ErrNoModel is returned by Registry.Predict for uncovered kernel kinds.
var ErrNoModel = fmt.Errorf("perfmodel: no model for kernel kind")

// Registry maps kernel kinds to their performance models — the asset
// store of Fig. 3's prediction track. Ops that call the same kernel kind
// share one model (addmm, bmm, linear, and their backwards all hit the
// GEMM entry).
type Registry struct {
	Device string
	models map[kernels.Kind]KernelModel
}

// NewRegistry returns an empty registry for a device.
func NewRegistry(device string) *Registry {
	return &Registry{Device: device, models: map[kernels.Kind]KernelModel{}}
}

// Register installs a model for a kind.
func (r *Registry) Register(kind kernels.Kind, m KernelModel) { r.models[kind] = m }

// Model returns the model for a kind, or nil.
func (r *Registry) Model(kind kernels.Kind) KernelModel { return r.models[kind] }

// Predict returns the predicted time of k. It returns ErrNoModel if the
// kind is not covered.
//
// It prices every kernel of every result-cache miss.
//
//lint:hotpath root
func (r *Registry) Predict(k *kernels.Kernel) (float64, error) {
	m, ok := r.models[k.Kind]
	if !ok {
		return 0, noModel(k.Kind)
	}
	return m.Predict(k), nil
}

// noModel wraps ErrNoModel with the uncovered kind; it is off the
// pricing path, which only reaches it for a kernel it cannot price.
//
//lint:hotpath stop wraps ErrNoModel for a kind the registry cannot price
func noModel(kind kernels.Kind) error { return fmt.Errorf("%w %s", ErrNoModel, kind) }

// Missing lists the kinds a calibration registers that r holds no model
// for, in plan order; a registry is complete when it is empty.
func (r *Registry) Missing() []kernels.Kind { return r.filter(calibratedKinds(), false) }

// Kinds lists the covered kernel kinds.
func (r *Registry) Kinds() []kernels.Kind { return r.filter(kernels.Kinds(), true) }

// filter lists, in order, the kinds of ks that r covers, or with
// covered false the ones it does not.
func (r *Registry) filter(ks []kernels.Kind, covered bool) []kernels.Kind {
	var out []kernels.Kind
	for _, k := range ks {
		if _, ok := r.models[k]; ok == covered {
			out = append(out, k)
		}
	}
	return out
}
