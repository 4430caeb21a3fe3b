package perfmodel

import (
	"runtime"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/microbench"
	"dlrmperf/internal/mlp"
	"dlrmperf/internal/stats"
	"dlrmperf/internal/xsync"
)

// CalibOptions is how a device calibrates in the Analysis Track of
// Fig. 3: microbenchmark sweep sizes and the ML-model training
// strategy. The seed is Calibrate's argument, the train split is the
// constant trainFrac, and every family of the plan (the CNN ones
// included) is always calibrated.
type CalibOptions struct {
	// SweepSizes overrides per-kind shape counts (default:
	// microbench.DefaultSweepSizes).
	SweepSizes map[kernels.Kind]int
	// MLPConfig is the configuration every ML-based model trains when
	// Search is empty (default: mlp.DefaultConfig).
	MLPConfig mlp.Config
	// Ensemble is the number of independently seeded networks averaged
	// per ML-based model (default 3).
	Ensemble int
	// Search, when it enumerates any configuration, replaces MLPConfig
	// with the Table II hyperparameter search over it
	// (mlp.FastSearchSpace, or mlp.PaperSearchSpace for the full grid).
	Search mlp.SearchSpace
}

// trainFrac is the share of each microbenchmark sweep the models are
// fitted on; the rest is held out for the Table IV evaluation.
const trainFrac = 0.8

func (o CalibOptions) withDefaults() CalibOptions {
	if o.SweepSizes == nil {
		o.SweepSizes = microbench.DefaultSweepSizes()
	}
	if o.MLPConfig.Width == 0 {
		o.MLPConfig = mlp.DefaultConfig()
	}
	if o.Ensemble <= 0 {
		o.Ensemble = 3
	}
	return o
}

// KernelEval is one row of Table IV: a named model evaluated on held-out
// microbenchmark samples.
type KernelEval struct {
	Row     string
	Summary stats.ErrorSummary
}

// Calibration bundles the fitted registry with its Table IV evaluation.
type Calibration struct {
	Registry *Registry
	// Evals holds one entry per Table IV row, in the paper's order.
	Evals []KernelEval
}

// Eval returns the named row, or a zero summary.
func (c *Calibration) Eval(row string) stats.ErrorSummary {
	for _, e := range c.Evals {
		if e.Row == row {
			return e.Summary
		}
	}
	return stats.ErrorSummary{}
}

// calibJob is one independent unit of the calibration plan: sweep one
// kernel family, split, fit the model registered for kind, and evaluate
// it (and, for the embedding families, the plain variant beside it).
// Every job carries a precomputed seed, so jobs are pure functions of
// (gpu, opt, seed) and can run in any order — serially or on a worker
// pool — with bit-identical results. memberWorkers bounds the
// ensemble-member concurrency inside the job.
type calibJob struct {
	kind kernels.Kind
	seed uint64
	run  func(seed uint64, memberWorkers int) (*Model, []KernelEval)
}

// seedStride is the per-family seed increment of the calibration plan.
// The stride (rather than, say, a hash of the family name) preserves the
// exact RNG schedule of the original strictly-serial implementation, so
// historical calibrations reproduce bit-for-bit.
const seedStride = 101

// calibrationPlan lays out the per-family jobs in the paper's Table IV
// order and assigns each its seed up front. Family job i draws from
// stream seed + seedStride*(i+1); ensemble member m within a family
// draws from memberSeed(familySeed, m).
func calibrationPlan(gpu hw.GPU, seed uint64, opt CalibOptions) []calibJob {
	var jobs []calibJob
	add := func(kind kernels.Kind, run func(seed uint64, memberWorkers int) (*Model, []KernelEval)) {
		seed += seedStride
		jobs = append(jobs, calibJob{kind: kind, seed: seed, run: run})
	}

	collect := func(kind kernels.Kind, seed uint64) (train, test *microbench.Dataset) {
		n := opt.SweepSizes[kind]
		if n <= 0 {
			n = 400
		}
		ds := microbench.CollectKind(gpu, kind, n, seed)
		return ds.Split(trainFrac, seed*31+7)
	}

	// --- Embedding lookup: plain vs enhanced, all vs large tables -----
	elJob := func(kind kernels.Kind, tag string) {
		add(kind, func(seed uint64, _ int) (*Model, []KernelEval) {
			train, test := collect(kind, seed)
			large := test.Filter(IsLargeTable)
			plain := CalibrateEL(tag, gpu, train, false)
			enhanced := CalibrateEL(tag+"H", gpu, train, true)
			// The paper adopts the enhanced model for E2E prediction.
			return enhanced, []KernelEval{
				{Row: tag, Summary: Evaluate(plain, test)},
				{Row: tag + "L", Summary: Evaluate(plain, large)},
				{Row: tag + "H", Summary: Evaluate(enhanced, test)},
				{Row: tag + "HL", Summary: Evaluate(enhanced, large)},
			}
		})
	}

	// --- Memory-bound kernels: roofline with corrected bandwidth -------
	rooflineJob := func(row string, kind kernels.Kind, peak float64) {
		add(kind, func(seed uint64, _ int) (*Model, []KernelEval) {
			train, test := collect(kind, seed)
			m := CalibrateRoofline(row, train, peak)
			return m, []KernelEval{{Row: row, Summary: Evaluate(m, test)}}
		})
	}

	// --- ML-based models: trained on roofline-normalized residuals
	// built from the public spec numbers; the corrected efficiencies live
	// in what the network learns. -------------------------------------
	mlpJob := func(name string, kind kernels.Kind) {
		add(kind, func(seed uint64, memberWorkers int) (*Model, []KernelEval) {
			train, test := collect(kind, seed)
			m := FitMLP(name, train, gpu.PeakFP32, gpu.DRAMBandwidth, opt, seed, memberWorkers)
			return m, []KernelEval{{Row: name, Summary: Evaluate(m, test)}}
		})
	}

	elJob(kernels.KindEmbeddingFwd, "EL-F")
	elJob(kernels.KindEmbeddingBwd, "EL-B")
	rooflineJob("concat", kernels.KindConcat, 0)
	rooflineJob("memcpy", kernels.KindMemcpyH2D, 0)
	mlpJob("GEMM", kernels.KindGEMM)
	mlpJob("transpose", kernels.KindTranspose)
	mlpJob("tril-F", kernels.KindTrilFwd)
	mlpJob("tril-B", kernels.KindTrilBwd)
	// Element-wise is not a Table IV row, but is required by the E2E
	// predictor for relu/losses/optimizer kernels.
	rooflineJob("elementwise", kernels.KindElementwise, gpu.PeakFP32*0.5)
	// The CNN families (the Fig. 10 extension) come last, so covering
	// them shifts no other family's seed.
	mlpJob("conv", kernels.KindConv)
	rooflineJob("batchnorm", kernels.KindBatchNorm, 0)
	return jobs
}

// calibratedKinds lists, in plan order, the kernel kinds a calibration
// registers: a registry is complete when it covers every one of them.
func calibratedKinds() []kernels.Kind {
	jobs := calibrationPlan(hw.GPU{}, 0, CalibOptions{})
	kinds := make([]kernels.Kind, len(jobs))
	for i, j := range jobs {
		kinds[i] = j.kind
	}
	return kinds
}

// Calibrate runs the full analysis track for one GPU from seed: sweep,
// fit, and evaluate every kernel family of the plan, returning the
// prediction-ready registry (with the enhanced embedding model
// installed, as the paper adopts) and the Table IV rows. Up to workers
// family jobs run at once, and ensemble members within a family train
// concurrently with what is left of the budget; workers 1 is the serial
// reference order and workers <= 0 selects runtime.GOMAXPROCS(0).
// Because every job owns a precomputed RNG stream, the result is
// bit-identical for any workers.
func Calibrate(gpu hw.GPU, seed uint64, opt CalibOptions, workers int) *Calibration {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opt = opt.withDefaults()
	jobs := calibrationPlan(gpu, seed, opt)
	models := make([]*Model, len(jobs))
	evals := make([][]KernelEval, len(jobs))
	// Split the budget between the two levels: family jobs fill the
	// pool first, and ensemble members only fan out with whatever
	// multiple of the job count is left (total in-flight work stays
	// ~bounded by workers instead of workers^2).
	memberWorkers := workers / len(jobs)
	if memberWorkers < 1 {
		memberWorkers = 1
	}
	xsync.ForEachN(len(jobs), workers, func(i int) {
		models[i], evals[i] = jobs[i].run(jobs[i].seed, memberWorkers)
	})

	// Merge in plan order so registries and Table IV rows are identical
	// to the serial path no matter which worker finished first.
	reg := NewRegistry(gpu.Name)
	cal := &Calibration{Registry: reg}
	for i, j := range jobs {
		reg.Register(j.kind, models[i])
		cal.Evals = append(cal.Evals, evals[i]...)
	}
	return cal
}

// Table4Rows lists the paper's Table IV rows in order.
func Table4Rows() []string {
	return []string{
		"EL-F", "EL-FL", "EL-FH", "EL-FHL",
		"EL-B", "EL-BL", "EL-BH", "EL-BHL",
		"concat", "memcpy",
		"GEMM", "transpose", "tril-F", "tril-B",
	}
}
