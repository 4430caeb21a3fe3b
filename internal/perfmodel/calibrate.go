package perfmodel

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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

// calibFamily is one kernel family of the calibration plan: its units
// sweep it, split, fit the model registered for kind, and evaluate it
// (and, for the embedding families, the plain variant beside it).
type calibFamily struct {
	kind  kernels.Kind
	model *Model
	evals []KernelEval
}

// calibUnit is one piece of the plan's work: a whole family, or one
// ensemble member of an MLP family. Every unit draws from seeds fixed
// by the plan, so units run in any order, serially or on a pool, with
// bit-identical results. cost estimates the unit's work: train rows ×
// epochs × parameters for an MLP member, the sweep size otherwise.
type calibUnit struct {
	cost float64
	run  func()
}

// seedStride is the per-family seed increment of the calibration plan.
// The stride (rather than, say, a hash of the family name) preserves the
// exact RNG schedule of the original strictly-serial implementation, so
// historical calibrations reproduce bit-for-bit.
const seedStride = 101

// calibrationPlan lays out the families in the paper's Table IV order,
// each with its seed fixed up front, and returns them with their units,
// costliest first. Family i draws from stream seed + seedStride*(i+1);
// ensemble member m within a family draws from memberSeed(familySeed,
// m).
func calibrationPlan(gpu hw.GPU, seed uint64, opt CalibOptions) ([]*calibFamily, []calibUnit) {
	var fams []*calibFamily
	var units []calibUnit
	add := func(kind kernels.Kind, costs []float64, run func(f *calibFamily, seed uint64, member int)) {
		f, seed := &calibFamily{kind: kind}, seed+seedStride*uint64(len(fams)+1)
		fams = append(fams, f)
		for member, cost := range costs {
			units = append(units, calibUnit{cost: cost, run: func() { run(f, seed, member) }})
		}
	}
	// A kind's sweep size, or 400 where opt gives it none.
	size := func(kind kernels.Kind) int { return cmp.Or(max(opt.SweepSizes[kind], 0), 400) }
	collect := func(kind kernels.Kind, seed uint64) (train, test *microbench.Dataset) {
		ds := microbench.CollectKind(gpu, kind, size(kind), seed)
		return ds.Split(trainFrac, seed*31+7)
	}

	// --- Embedding lookup: plain vs enhanced, all vs large tables -----
	elJob := func(kind kernels.Kind, tag string) {
		add(kind, []float64{float64(size(kind))}, func(f *calibFamily, seed uint64, _ int) {
			train, test := collect(kind, seed)
			large := test.Filter(IsLargeTable)
			plain := CalibrateEL(tag, gpu, train, false)
			// The paper adopts the enhanced model for E2E prediction.
			f.model = CalibrateEL(tag+"H", gpu, train, true)
			f.evals = []KernelEval{
				{Row: tag, Summary: Evaluate(plain, test)},
				{Row: tag + "L", Summary: Evaluate(plain, large)},
				{Row: tag + "H", Summary: Evaluate(f.model, test)},
				{Row: tag + "HL", Summary: Evaluate(f.model, large)},
			}
		})
	}

	// --- Memory-bound kernels: roofline with corrected bandwidth -------
	rooflineJob := func(row string, kind kernels.Kind, peak float64) {
		add(kind, []float64{float64(size(kind))}, func(f *calibFamily, seed uint64, _ int) {
			train, test := collect(kind, seed)
			f.model = CalibrateRoofline(row, train, peak)
			f.evals = []KernelEval{{Row: row, Summary: Evaluate(f.model, test)}}
		})
	}

	// --- ML-based models: trained on roofline-normalized residuals
	// built from the public spec numbers; the corrected efficiencies live
	// in what the network learns. One unit per ensemble member: the
	// first to start sweeps and sets the fit up, the last to finish
	// evaluates the ensemble. With a search, member 0 is the grid, and
	// the others are priced at opt.MLPConfig: the winner is not known
	// up front. -------------------------------------------------------
	mlpJob := func(name string, kind kernels.Kind) {
		var prep sync.Once
		var test *microbench.Dataset
		var m *Model
		var train func(member int)
		var done atomic.Int64
		rows, in := int(float64(size(kind))*trainFrac), kernels.FeatureWidth(kind)
		costs := slices.Repeat([]float64{opt.MLPConfig.Work(rows, in)}, opt.Ensemble)
		if w := opt.Search.Work(rows, in); w > 0 {
			costs[0] = w
		}
		add(kind, costs, func(f *calibFamily, seed uint64, member int) {
			prep.Do(func() {
				var ds *microbench.Dataset
				ds, test = collect(kind, seed)
				m, train = FitMLP(name, ds, gpu.PeakFP32, gpu.DRAMBandwidth, opt, seed)
			})
			train(member)
			if done.Add(1) == int64(len(costs)) {
				f.model, f.evals = m, []KernelEval{{Row: name, Summary: Evaluate(m, test)}}
			}
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
	slices.SortStableFunc(units, func(a, b calibUnit) int { return cmp.Compare(b.cost, a.cost) })
	return fams, units
}

// calibratedKinds lists, in plan order, the kernel kinds a calibration
// registers: a registry is complete when it covers every one of them.
// Every asset install asks, so the plan is laid out once.
var calibratedKinds = sync.OnceValue(func() []kernels.Kind {
	fams, _ := calibrationPlan(hw.GPU{}, 0, CalibOptions{})
	kinds := make([]kernels.Kind, len(fams))
	for i, f := range fams {
		kinds[i] = f.kind
	}
	return kinds
})

// Calibrate runs the full analysis track for one GPU from seed: sweep,
// fit, and evaluate every kernel family of the plan, returning the
// prediction-ready registry (with the enhanced embedding model
// installed, as the paper adopts) and the Table IV rows. The plan's
// units (a family each, or an ensemble member each for the MLP
// families) start costliest first on up to workers goroutines; workers
// 1 runs them serially and workers <= 0 selects runtime.GOMAXPROCS(0).
// Because every unit owns a precomputed RNG stream and the families
// merge in plan order, the result is bit-identical for any workers.
func Calibrate(gpu hw.GPU, seed uint64, opt CalibOptions, workers int) *Calibration {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fams, units := calibrationPlan(gpu, seed, opt.withDefaults())
	xsync.ForEachN(len(units), workers, func(i int) { units[i].run() })
	cal := &Calibration{Registry: NewRegistry(gpu.Name)}
	for _, f := range fams {
		cal.Registry.Register(f.kind, f.model)
		cal.Evals = append(cal.Evals, f.evals...)
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
