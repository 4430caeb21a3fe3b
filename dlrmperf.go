// Package dlrmperf is the public API of the DLRM GPU-training performance
// model — a Go reproduction of "Building a Performance Model for Deep
// Learning Recommendation Model Training on GPUs" (ISPASS 2022).
//
// The package wires together the reproduction's components behind a small
// surface:
//
//	pipe, _ := dlrmperf.NewPipeline(dlrmperf.V100)
//	w, _ := dlrmperf.NewModel(dlrmperf.DLRMDefault, 2048)
//	meas := pipe.Measure(w, 1)                   // simulated "hardware" run
//	db, _ := pipe.CollectOverheads(w, 2)         // profiled run -> overhead stats
//	pred, _ := pipe.Predict(w, db)               // Algorithm 1
//	fmt.Printf("measured %.2fms predicted %.2fms\n",
//	    meas.IterTimeUs/1000, pred.E2EUs/1000)
//
// Everything is deterministic in the seeds, runs offline, and uses only
// the standard library.
package dlrmperf

import (
	"runtime"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/overhead"
	"dlrmperf/internal/perfmodel"
	"dlrmperf/internal/predict"
	"dlrmperf/internal/sim"
)

// Supported device names.
const (
	V100    = hw.V100
	TITANXp = hw.TITANXp
	P100    = hw.P100
)

// Built-in workload names.
const (
	DLRMDefault = models.NameDLRMDefault
	DLRMMLPerf  = models.NameDLRMMLPerf
	DLRMDDP     = models.NameDLRMDDP
	ResNet50    = models.NameResNet50
	InceptionV3 = models.NameInceptionV3
	Transformer = models.NameTransformer
)

// Devices lists the supported device names.
func Devices() []string { return hw.Names() }

// Workloads lists the built-in workload names.
func Workloads() []string {
	return []string{DLRMDefault, DLRMMLPerf, DLRMDDP, ResNet50, InceptionV3, Transformer}
}

// config holds pipeline construction options.
type config struct {
	seed  uint64
	calib perfmodel.CalibOptions
}

// Option customizes NewPipeline.
type Option func(*config)

// WithSeed sets the calibration seed (default 2022).
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithCalibration sets how the device calibrates, for advanced use
// (sweep sizes, ensemble counts, the Table II hyperparameter search via
// Search). The seed is WithSeed's.
func WithCalibration(opts perfmodel.CalibOptions) Option {
	return func(c *config) { c.calib = opts }
}

// Pipeline owns the calibrated kernel performance models for one device —
// the reusable "assets" of the paper's prediction track.
type Pipeline struct {
	platform hw.Platform
	cal      *perfmodel.Calibration
}

// NewPipeline calibrates kernel performance models for the named device
// by sweeping microbenchmarks on the simulated hardware and fitting the
// paper's heuristic and ML-based models. The per-kernel-family
// calibration jobs run concurrently, one per core at most; the fitted
// models are bit-identical to a serial calibration of the same seed.
// Unlike an Engine's devices, a pipeline calibrates from the seed
// itself, with no per-device salt.
func NewPipeline(device string, opts ...Option) (*Pipeline, error) {
	p, err := hw.ByName(device)
	if err != nil {
		return nil, err
	}
	cfg := config{seed: 2022}
	for _, o := range opts {
		o(&cfg)
	}
	return &Pipeline{platform: p, cal: perfmodel.Calibrate(p.GPU, cfg.seed, cfg.calib, 0)}, nil
}

// KernelModelErrors returns the held-out Table IV evaluation of every
// calibrated kernel model: row name -> (GMAE, mean, std).
func (p *Pipeline) KernelModelErrors() map[string][3]float64 {
	out := map[string][3]float64{}
	for _, e := range p.cal.Evals {
		out[e.Row] = [3]float64{e.Summary.GMAE, e.Summary.Mean, e.Summary.Std}
	}
	return out
}

// Workload wraps a model execution graph.
type Workload struct {
	model *models.Model
}

// NewModel builds a named workload at the given batch size. It errors
// on an unknown name or a batch size below 1.
func NewModel(name string, batch int64) (*Workload, error) {
	m, err := models.Build(name, batch)
	if err != nil {
		return nil, err
	}
	return &Workload{model: m}, nil
}

// Measurement is what a (simulated) hardware run reports.
type Measurement struct {
	// IterTimeUs is the measured per-batch training time in µs.
	IterTimeUs float64
	// ActiveTimeUs is the measured GPU active time per batch in µs.
	ActiveTimeUs float64
	// Utilization is ActiveTimeUs / IterTimeUs.
	Utilization float64
}

// Measure runs the workload on the pipeline's simulated device (5 warmup
// + 30 measured iterations) and reports the measured metrics.
func (p *Pipeline) Measure(w *Workload, seed uint64) Measurement {
	r := sim.Run(w.model.Graph, sim.Config{
		Platform: p.platform, Seed: seed, Warmup: 5, Iters: 30, Workload: w.model.Name,
	})
	return Measurement{
		IterTimeUs:   r.MeanIterTime,
		ActiveTimeUs: r.MeanActiveTime,
		Utilization:  r.Utilization(),
	}
}

// OverheadDB wraps the per-op host-overhead statistics extracted from
// profiled traces.
type OverheadDB struct {
	db *overhead.DB
}

// CollectOverheads runs the workload with profiling enabled and extracts
// the T1..T5 overhead statistics (IQR-trimmed means), the second asset of
// the prediction track.
func (p *Pipeline) CollectOverheads(w *Workload, seed uint64) (*OverheadDB, error) {
	return p.SharedOverheads([]*Workload{w}, seed)
}

// SharedOverheads pools the overhead samples of several workloads — the
// shared database the paper proposes for large-scale prediction. The
// profiled runs simulate concurrently, each writing its samples as it
// goes; the database is the one a serial pass would pool.
func (p *Pipeline) SharedOverheads(ws []*Workload, seed uint64) (*OverheadDB, error) {
	c := overhead.NewCollector()
	// Every run is simulated on the spot, so Pool has no error to report.
	db, _ := c.Pool(len(ws), runtime.GOMAXPROCS(0), func(i int) (*overhead.Samples, error) {
		return c.Profile(ws[i].model.Graph, sim.Config{
			Platform: p.platform, Seed: seed + uint64(i)*13, Warmup: 5, Iters: 30,
			Profile: true, Workload: ws[i].model.Name,
		}), nil
	})
	return &OverheadDB{db: db}, nil
}

// Prediction is the output of the E2E performance model.
type Prediction struct {
	// E2EUs is Algorithm 1's per-batch training time prediction in µs.
	E2EUs float64
	// ActiveUs is the predicted GPU active time in µs.
	ActiveUs float64
	// CPUUs is the predicted host critical-path time in µs.
	CPUUs float64
}

// Predict runs the critical-path E2E performance model (Algorithm 1) over
// the workload's execution graph without running the workload.
func (p *Pipeline) Predict(w *Workload, db *OverheadDB) (Prediction, error) {
	pr, err := predict.New(p.cal.Registry, db.db).Predict(w.model.Graph)
	if err != nil {
		return Prediction{}, err
	}
	return Prediction{E2EUs: pr.E2E, ActiveUs: pr.Active, CPUUs: pr.CPUTime}, nil
}
