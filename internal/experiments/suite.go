// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section IV) plus the co-design case studies of
// Section V. Each driver returns structured results and can render the
// paper's artifact as a text table; the root-level benchmarks and
// cmd/experiments regenerate everything from here.
//
// A Suite is the concurrent calibration engine (internal/engine), which
// owns the expensive assets — kernel-model calibrations, measured
// workload runs, overhead databases — so that drivers compose without
// recomputation, concurrent drivers never calibrate a device twice, and
// every result is deterministic in the seed.
package experiments

import (
	"dlrmperf/internal/engine"
	"dlrmperf/internal/hw"
	"dlrmperf/internal/perfmodel"
)

// Options scopes a Suite.
type Options struct {
	// Seed drives all randomness.
	Seed uint64
	// Devices are the evaluation platforms (default: all three).
	Devices []string
	// DLRMBatches are the DLRM batch sizes (default: the engine's,
	// 512..4096).
	DLRMBatches []int64
	// CNNBatches are the CNN batch sizes of Fig. 10 (default: the
	// engine's, 16/32/64).
	CNNBatches []int64
	// Iters is the measured-run iteration count (default: the engine's,
	// 30).
	Iters int
	// Calib is how every device calibrates; each device calibrates it
	// from Seed salted with the device name.
	Calib perfmodel.CalibOptions
}

// Suite runs experiment drivers against a shared asset engine: it is
// the engine, plus the options that scope the drivers.
type Suite struct {
	*engine.Engine
	opts Options
}

// NewSuite returns a Suite with the given options. The batch lists and
// the iteration count default to the engine's.
func NewSuite(opts Options) *Suite {
	if opts.Seed == 0 {
		opts.Seed = 2022
	}
	if len(opts.Devices) == 0 {
		opts.Devices = hw.Names()
	}
	eng := engine.New(engine.Options{
		Seed:        opts.Seed,
		Calib:       opts.Calib,
		DLRMBatches: opts.DLRMBatches,
		CNNBatches:  opts.CNNBatches,
		Iters:       opts.Iters,
	})
	resolved := eng.Options()
	opts.DLRMBatches, opts.CNNBatches, opts.Iters = resolved.DLRMBatches, resolved.CNNBatches, resolved.Iters
	return &Suite{Engine: eng, opts: opts}
}

// Options returns the resolved options.
func (s *Suite) Options() Options { return s.opts }
