// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section IV) plus the co-design case studies of
// Section V. Each driver returns structured results and can render the
// paper's artifact as a text table; the root-level benchmarks and
// cmd/experiments regenerate everything from here.
//
// A Suite is a thin view over the concurrent calibration engine
// (internal/engine), which owns the expensive assets — kernel-model
// calibrations, measured workload runs, overhead databases — so that
// drivers compose without recomputation, concurrent drivers never
// calibrate a device twice, and every result is deterministic in the
// seed.
package experiments

import (
	"dlrmperf/internal/engine"
	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/overhead"
	"dlrmperf/internal/perfmodel"
	"dlrmperf/internal/predict"
	"dlrmperf/internal/sim"
	"dlrmperf/internal/xrand"
)

// Options scopes a Suite.
type Options struct {
	// Seed drives all randomness.
	Seed uint64
	// Devices are the evaluation platforms (default: all three).
	Devices []string
	// DLRMBatches are the DLRM batch sizes (default 512..4096).
	DLRMBatches []int64
	// CNNBatches are the CNN batch sizes of Fig. 10 (default 16/32/64).
	CNNBatches []int64
	// Iters is the measured-run iteration count (default 30).
	Iters int
	// Calib overrides calibration options (Seed is always taken from
	// Options.Seed).
	Calib perfmodel.CalibOptions
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 2022
	}
	if len(o.Devices) == 0 {
		o.Devices = hw.Names()
	}
	if len(o.DLRMBatches) == 0 {
		o.DLRMBatches = []int64{512, 1024, 2048, 4096}
	}
	if len(o.CNNBatches) == 0 {
		o.CNNBatches = []int64{16, 32, 64}
	}
	if o.Iters == 0 {
		o.Iters = 30
	}
	return o
}

// Suite runs experiment drivers against a shared asset engine.
type Suite struct {
	opts Options
	eng  *engine.Engine
}

// NewSuite returns a Suite with the given options.
func NewSuite(opts Options) *Suite {
	o := opts.withDefaults()
	calib := o.Calib
	// Always include the CNN extension so Fig. 10 composes.
	calib.IncludeCNN = true
	return &Suite{
		opts: o,
		eng: engine.New(engine.Options{
			Seed:            o.Seed,
			SaltDeviceSeeds: true,
			Calib:           calib,
			DLRMBatches:     o.DLRMBatches,
			CNNBatches:      o.CNNBatches,
			Iters:           o.Iters,
		}),
	}
}

// Options returns the resolved options.
func (s *Suite) Options() Options { return s.opts }

// Engine exposes the suite's asset engine, so callers can warm-start it
// or share it with a prediction service.
func (s *Suite) Engine() *engine.Engine { return s.eng }

// devSalt is the per-device seed salt (shared with the engine so every
// historical figure reproduces).
func devSalt(device string) uint64 { return xrand.HashString(device) }

// model returns the memoized built model.
func (s *Suite) model(name string, batch int64) (*models.Model, error) {
	return s.eng.Model(name, batch)
}

// Calibration returns the memoized kernel-model calibration for a device
// (always including the CNN extension so Fig. 10 composes).
func (s *Suite) Calibration(device string) (*perfmodel.Calibration, error) {
	return s.eng.Calibration(device)
}

// Run returns the memoized measured run of model at batch on device.
func (s *Suite) Run(device, model string, batch int64) (*sim.Result, error) {
	return s.eng.Run(device, model, batch)
}

// OverheadDB returns the individual-workload overhead database for one
// model on one device, pooled over all evaluated batch sizes (the
// paper's per-workload overhead statistics).
func (s *Suite) OverheadDB(device, model string) (*overhead.DB, error) {
	return s.eng.OverheadDB(device, model)
}

// SharedOverheadDB pools overhead samples across all DLRM workloads on a
// device (the shared_E2E variant of Fig. 9).
func (s *Suite) SharedOverheadDB(device string) (*overhead.DB, error) {
	return s.eng.SharedOverheadDB(device)
}

// Predictor builds the paper's predictor for a device with the given
// overhead database.
func (s *Suite) Predictor(device string, db *overhead.DB) (*predict.Predictor, error) {
	return s.eng.Predictor(device, db)
}
