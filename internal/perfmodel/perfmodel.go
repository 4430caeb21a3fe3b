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
	"dlrmperf/internal/xsync"
)

// KernelModel predicts the execution time in µs of kernels of one family.
type KernelModel interface {
	// Name identifies the model (for reports).
	Name() string
	// Predict returns the predicted kernel time in µs.
	Predict(k kernels.Kernel) float64
}

// --- Roofline ----------------------------------------------------------------

// Roofline is the classic model t = max(FLOP/peak, lat + bytes/bw) with
// the corrected (measured) bandwidth, used for element-wise, concat,
// memcpy, and batch-norm kernels. Following the paper's protocol of
// correcting the peak bandwidth to the maximum measured bandwidth, the
// calibration additionally measures the fixed launch/DMA latency that
// dominates small transfers.
type Roofline struct {
	ModelName string
	// BW is the corrected peak bandwidth in B/µs.
	BW float64
	// Lat is the measured fixed per-kernel latency in µs.
	Lat float64
	// Peak is the corrected peak compute throughput in FLOP/µs.
	Peak float64
}

// Name implements KernelModel.
func (r Roofline) Name() string { return r.ModelName }

// Predict implements KernelModel.
func (r Roofline) Predict(k kernels.Kernel) float64 {
	read, write := k.Bytes()
	t := r.Lat + (read+write)/r.BW
	if r.Peak > 0 {
		if tc := k.FLOPs() / r.Peak; tc > t {
			t = tc
		}
	}
	return t
}

// CalibrateRoofline fits t = lat + bytes/bw to a dataset by weighted
// least squares (weights 1/t^2, i.e. minimizing relative error), which
// simultaneously recovers the corrected peak bandwidth from the large
// transfers and the fixed latency from the small ones.
func CalibrateRoofline(name string, ds *microbench.Dataset, peakFLOPs float64) Roofline {
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
	r := Roofline{ModelName: name, Peak: peakFLOPs}
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

// Baseline maps a kernel to an analytic time scale (µs). ML-based models
// are trained on the *residual* log(measured/baseline): the roofline
// baseline carries the many-orders-of-magnitude size dependence, and the
// network only has to learn the bounded efficiency surface (tile and
// wave quantization, alignment penalties, shape quirks). This keeps the
// model unbiased across the size range and extrapolation-safe.
type Baseline func(k kernels.Kernel) float64

// RooflineBaseline returns the spec-sheet roofline baseline for a GPU
// with the given peak FLOP/µs and bandwidth B/µs.
func RooflineBaseline(peak, bw float64) Baseline {
	return func(k kernels.Kernel) float64 {
		read, write := k.Bytes()
		t := (read + write) / bw
		if peak > 0 {
			if tc := k.FLOPs() / peak; tc > t {
				t = tc
			}
		}
		if t < 0.5 {
			t = 0.5 // launch floor keeps the residual bounded for tiny kernels
		}
		return t
	}
}

// MLPModel wraps an ensemble of MLP regressors over log-shape features
// predicting the log residual to an analytic baseline. Averaging the
// log-residual predictions of independently seeded networks reduces the
// fit variance on the quantization-heavy efficiency surfaces (GEMM wave
// boundaries, transpose alignment cliffs). The baseline is parameterized
// by (BasePeak, BaseBW) rather than a closure so trained models
// serialize into a shared asset database.
type MLPModel struct {
	ModelName string
	Nets      []*mlp.Net
	Config    mlp.Config
	// BasePeak and BaseBW parameterize the roofline baseline the
	// networks' residuals are relative to.
	BasePeak, BaseBW float64
}

// Name implements KernelModel.
func (m *MLPModel) Name() string { return m.ModelName }

// base returns the analytic baseline time of k.
func (m *MLPModel) base(k kernels.Kernel) float64 {
	return RooflineBaseline(m.BasePeak, m.BaseBW)(k)
}

// Predict implements KernelModel.
func (m *MLPModel) Predict(k kernels.Kernel) float64 {
	var buf [8]float64 // the widest feature vector, Conv's
	x := kernels.AppendFeatures(buf[:0], k)
	s := 0.0
	for _, n := range m.Nets {
		s += n.Predict(x)
	}
	return m.base(k) * math.Exp(s/float64(len(m.Nets)))
}

// residualTargets converts a dataset into (features, log residual) pairs.
func residualTargets(ds *microbench.Dataset, base Baseline) ([][]float64, []float64) {
	var X [][]float64
	var Y []float64
	for _, s := range ds.Samples {
		t := s.Time
		if t <= 0 {
			t = 1e-6
		}
		X = append(X, kernels.AppendFeatures(nil, s.Kernel))
		Y = append(Y, math.Log(t/base(s.Kernel)))
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

// trainEnsemble trains members [from, to) of an ensemble, each with its
// own derived seed, with at most workers trainings in flight. Members
// slot into the result by index, so the output is bit-identical
// regardless of workers.
func trainEnsemble(X [][]float64, Y []float64, cfg mlp.Config, familySeed uint64, from, to, workers int) []*mlp.Net {
	if to < from {
		to = from
	}
	nets := make([]*mlp.Net, to-from)
	xsync.ForEachN(len(nets), workers, func(i int) {
		nets[i] = mlp.Train(X, Y, cfg, memberSeed(familySeed, from+i))
	})
	return nets
}

// TrainMLPParallel fits an MLPModel ensemble on a dataset with a fixed
// configuration, up to workers ensemble members training concurrently.
// basePeak/baseBW parameterize the roofline the residual targets are
// relative to. Members slot in by index, so the fitted model is
// bit-identical for any workers.
func TrainMLPParallel(name string, ds *microbench.Dataset, basePeak, baseBW float64, cfg mlp.Config, ensemble int, seed uint64, workers int) *MLPModel {
	if ensemble < 1 {
		ensemble = 1
	}
	X, Y := residualTargets(ds, RooflineBaseline(basePeak, baseBW))
	m := &MLPModel{ModelName: name, Config: cfg, BasePeak: basePeak, BaseBW: baseBW}
	m.Nets = trainEnsemble(X, Y, cfg, seed, 0, ensemble, workers)
	return m
}

// SearchMLPParallel fits an MLPModel with a hyperparameter grid search
// (Table II), then trains an ensemble of the winning configuration with
// up to workers members training concurrently; the fitted model is
// bit-identical for any workers.
func SearchMLPParallel(name string, ds *microbench.Dataset, basePeak, baseBW float64, space mlp.SearchSpace, ensemble int, seed uint64, workers int) *MLPModel {
	if ensemble < 1 {
		ensemble = 1
	}
	X, Y := residualTargets(ds, RooflineBaseline(basePeak, baseBW))
	net, cfg, _ := mlp.GridSearch(X, Y, space, seed)
	m := &MLPModel{ModelName: name, Config: cfg, BasePeak: basePeak, BaseBW: baseBW, Nets: []*mlp.Net{net}}
	m.Nets = append(m.Nets, trainEnsemble(X, Y, cfg, seed, 1, ensemble, workers)...)
	return m
}

// --- Evaluation ------------------------------------------------------------------

// Evaluate computes the Table IV error statistics of model on a dataset.
func Evaluate(model KernelModel, ds *microbench.Dataset) stats.ErrorSummary {
	var pred, actual []float64
	for _, s := range ds.Samples {
		pred = append(pred, model.Predict(s.Kernel))
		actual = append(actual, s.Time)
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
func (r *Registry) Predict(k kernels.Kernel) (float64, error) {
	m, ok := r.models[k.Kind()]
	if !ok {
		return 0, fmt.Errorf("%w %s", ErrNoModel, k.Kind())
	}
	return m.Predict(k), nil
}

// Kinds lists the covered kernel kinds.
func (r *Registry) Kinds() []kernels.Kind {
	var out []kernels.Kind
	for _, k := range kernels.Kinds() {
		if _, ok := r.models[k]; ok {
			out = append(out, k)
		}
	}
	return out
}
