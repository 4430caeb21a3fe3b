package experiments

import (
	"sort"

	"dlrmperf/internal/export"
	"dlrmperf/internal/hw"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/models"
	"dlrmperf/internal/overhead"
	"dlrmperf/internal/scenario"
	"dlrmperf/internal/sim"
	"dlrmperf/internal/stats"
	"dlrmperf/internal/workload"
)

// --- Fig. 11 / Section V-A(b): op fusion ---------------------------------------

// Fig11Row evaluates the embedding-bag fusion what-if at one batch size:
// the predictor forecasts the speedup of replacing per-table
// embedding_bag ops with one batched lookup, without running the fused
// model; the simulator then validates the forecast.
type Fig11Row struct {
	Batch int64
	// Predicted per-batch times, µs.
	PredUnfused, PredFused float64
	// Measured per-batch times, µs.
	MeasUnfused, MeasFused float64
	// PredictedSpeedup and MeasuredSpeedup are unfused/fused ratios.
	PredictedSpeedup, MeasuredSpeedup float64
}

// Fig11 runs the op-fusion co-design study on V100 with DLRM_default's
// embedding configuration.
func (s *Suite) Fig11() ([]Fig11Row, error) {
	p, err := hw.ByName(hw.V100)
	if err != nil {
		return nil, err
	}
	var rows []Fig11Row
	for _, b := range s.opts.DLRMBatches {
		cfg := models.DLRMDefaultConfig(b)
		cfg.FusedEmbedding = false
		unfused, err := models.BuildDLRM(cfg)
		if err != nil {
			return nil, err
		}
		// Measure + extract overheads from the unfused model only: the
		// whole point is that the fused variant never runs.
		meas := sim.Run(unfused.Graph, sim.Config{
			Platform: p, Seed: s.opts.Seed + 301 + uint64(b), Warmup: 5,
			Iters: s.opts.Iters, Workload: unfused.Name,
		})
		c := overhead.NewCollector()
		db, _ := c.Pool(1, 1, func(int) (*overhead.Samples, error) {
			return c.Profile(unfused.Graph, sim.Config{
				Platform: p, Seed: s.opts.Seed + 303 + uint64(b), Warmup: 5,
				Iters: s.opts.Iters, Profile: true, Workload: unfused.Name,
			}), nil
		})
		pred, err := s.Predictor(hw.V100, db)
		if err != nil {
			return nil, err
		}
		prUnfused, err := pred.Predict(unfused.Graph)
		if err != nil {
			return nil, err
		}

		// Transform the execution graph: all embedding_bag ops + their
		// concat collapse into one batched lookup (the forward pass; the
		// backward bags fuse symmetrically).
		fusedModel := unfused.Clone()
		if err := models.FuseEmbeddingBags(fusedModel); err != nil {
			return nil, err
		}
		prFused, err := pred.Predict(fusedModel.Graph)
		if err != nil {
			return nil, err
		}

		// Validation run of the fused graph.
		measFused := sim.Run(fusedModel.Graph, sim.Config{
			Platform: p, Seed: s.opts.Seed + 307 + uint64(b), Warmup: 5,
			Iters: s.opts.Iters, Workload: unfused.Name,
		})

		rows = append(rows, Fig11Row{
			Batch:            b,
			PredUnfused:      prUnfused.E2E,
			PredFused:        prFused.E2E,
			MeasUnfused:      meas.MeanIterTime,
			MeasFused:        measFused.MeanIterTime,
			PredictedSpeedup: prUnfused.E2E / prFused.E2E,
			MeasuredSpeedup:  meas.MeanIterTime / measFused.MeanIterTime,
		})
	}
	return rows, nil
}

// RenderFig11 renders the fusion study.
func RenderFig11(rows []Fig11Row) string {
	t := export.NewTable("Fig 11: embedding-bag fusion what-if (DLRM_default, V100)",
		"batch", "pred_unfused", "pred_fused", "pred_speedup",
		"meas_unfused", "meas_fused", "meas_speedup")
	for _, r := range rows {
		t.AddRow(r.Batch, export.Ms(r.PredUnfused), export.Ms(r.PredFused),
			ratio(r.PredictedSpeedup), export.Ms(r.MeasUnfused), export.Ms(r.MeasFused),
			ratio(r.MeasuredSpeedup))
	}
	return t.Render()
}

func ratio(v float64) string { return export.PctAbs(v-1) + " faster" }

// --- Section V-A(c): embedding-table sharding load balance ---------------------

// ShardingScheme is one table-to-device assignment evaluated by the
// predictor.
type ShardingScheme struct {
	Name string
	// PerDevice is the predicted embedding time per device, µs.
	PerDevice []float64
	// Makespan is the max per-device time (the step's critical device).
	Makespan float64
}

// Sharding evaluates table-sharding schemes for a heterogeneous 16-table
// embedding layer split across nDevices V100s, using only the kernel
// performance model — no workload ever runs.
func (s *Suite) Sharding(nDevices int) ([]ShardingScheme, error) {
	cal, err := s.Calibration(hw.V100)
	if err != nil {
		return nil, err
	}
	elModel := cal.Registry.Model(kernels.KindEmbeddingFwd)

	// A skewed table population: a few huge, hot tables (large pooling
	// factors), many small, cold ones — the shape of production models
	// where naive sharding loses.
	type table = workload.TableSpec
	tables := []table{
		{Rows: 14_000_000, Lookups: 64}, {Rows: 11_000_000, Lookups: 32}, {Rows: 8_000_000, Lookups: 32}, {Rows: 4_000_000, Lookups: 16},
		{Rows: 1_000_000, Lookups: 16}, {Rows: 1_000_000, Lookups: 10}, {Rows: 500_000, Lookups: 10}, {Rows: 500_000, Lookups: 8},
		{Rows: 200_000, Lookups: 8}, {Rows: 200_000, Lookups: 4}, {Rows: 100_000, Lookups: 4}, {Rows: 100_000, Lookups: 2},
		{Rows: 50_000, Lookups: 2}, {Rows: 50_000, Lookups: 1}, {Rows: 20_000, Lookups: 1}, {Rows: 20_000, Lookups: 1},
	}
	const batch, dim = 2048, 64

	cost := func(t table) float64 {
		return elModel.Predict(&kernels.Kernel{
			Kind: kernels.KindEmbeddingFwd, B: batch, E: t.Rows, T: 1, L: t.Lookups, D: dim,
		})
	}

	assignRoundRobin := func() [][]table {
		out := make([][]table, nDevices)
		for i, t := range tables {
			out[i%nDevices] = append(out[i%nDevices], t)
		}
		return out
	}
	assignBySize := func() [][]table {
		// Contiguous chunks of the size-sorted list: the naive scheme
		// that overloads whichever device gets the big tables.
		sorted := append([]table(nil), tables...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Rows > sorted[j].Rows })
		out := make([][]table, nDevices)
		per := (len(sorted) + nDevices - 1) / nDevices
		for i, t := range sorted {
			out[i/per] = append(out[i/per], t)
		}
		return out
	}
	// Greedy LPT over *predicted* per-table cost — the paper's
	// co-design use, through the same planner the scenarios shard with.
	plan, err := scenario.PlanShardsCost(tables, nDevices, cost)
	if err != nil {
		return nil, err
	}
	assignGreedyLPT := func() [][]table {
		out := make([][]table, nDevices)
		for d := range out {
			out[d] = plan.TablesFor(d, tables)
		}
		return out
	}

	schemes := []struct {
		name   string
		assign func() [][]table
	}{
		{"chunked-by-size", assignBySize},
		{"round-robin", assignRoundRobin},
		{"greedy-predicted-LPT", assignGreedyLPT},
	}
	var out []ShardingScheme
	for _, sc := range schemes {
		assignment := sc.assign()
		res := ShardingScheme{Name: sc.name}
		for _, devTables := range assignment {
			t := 0.0
			for _, tb := range devTables {
				t += cost(tb)
			}
			res.PerDevice = append(res.PerDevice, t)
			if t > res.Makespan {
				res.Makespan = t
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// RenderSharding renders the sharding study.
func RenderSharding(schemes []ShardingScheme) string {
	t := export.NewTable("Sharding: predicted embedding-lookup load balance (V100)",
		"scheme", "makespan", "per_device")
	for _, sc := range schemes {
		per := ""
		for i, v := range sc.PerDevice {
			if i > 0 {
				per += " / "
			}
			per += export.Us(v)
		}
		t.AddRow(sc.Name, export.Us(sc.Makespan), per)
	}
	return t.Render()
}

// --- Ablations -------------------------------------------------------------------

// AblationRow compares E2E error under a predictor variant.
type AblationRow struct {
	Variant string
	Model   string
	Batch   int64
	E2EErr  float64
}

// AblationOverheadPolicy quantifies two design choices of the prediction
// pipeline on V100: (a) IQR-trimming overhead samples versus using raw
// means — the paper attributes its systematic E2E underestimation to
// trimming the long tails; and (b) the 10 µs T4 constant versus measured
// per-runtime-function means.
func (s *Suite) AblationOverheadPolicy() ([]AblationRow, error) {
	var rows []AblationRow
	dev := hw.V100
	for _, model := range models.DLRMNames() {
		// Raw (untrimmed) overhead DB. Its samples are read before the
		// trimmed database that pools them too: once every database
		// pooling a run is resident, the engine releases the run.
		raw := overhead.NewCollector()
		raw.TrimK = -1
		batches := s.opts.DLRMBatches
		rawDB, err := raw.Pool(len(batches), s.Engine.Options().Workers, func(i int) (*overhead.Samples, error) {
			return s.Samples(dev, model, batches[i])
		})
		if err != nil {
			return nil, err
		}
		trimmed, err := s.OverheadDB(dev, model)
		if err != nil {
			return nil, err
		}

		predTrim, err := s.Predictor(dev, trimmed)
		if err != nil {
			return nil, err
		}
		predRaw, err := s.Predictor(dev, rawDB)
		if err != nil {
			return nil, err
		}
		predT4, err := s.Predictor(dev, trimmed)
		if err != nil {
			return nil, err
		}
		predT4.UseMeasuredT4 = true

		for _, b := range s.opts.DLRMBatches {
			meas, err := s.Run(dev, model, b)
			if err != nil {
				return nil, err
			}
			m, err := s.Model(model, b)
			if err != nil {
				return nil, err
			}
			prTrim, err := predTrim.Predict(m.Graph)
			if err != nil {
				return nil, err
			}
			prRaw, err := predRaw.Predict(m.Graph)
			if err != nil {
				return nil, err
			}
			prT4, err := predT4.Predict(m.Graph)
			if err != nil {
				return nil, err
			}
			rows = append(rows,
				AblationRow{"trimmed (paper)", model, b, stats.RelErr(prTrim.E2E, meas.MeanIterTime)},
				AblationRow{"raw means", model, b, stats.RelErr(prRaw.E2E, meas.MeanIterTime)},
				AblationRow{"measured T4", model, b, stats.RelErr(prT4.E2E, meas.MeanIterTime)},
			)
		}
	}
	return rows, nil
}

// RenderAblation renders the ablation rows.
func RenderAblation(rows []AblationRow) string {
	t := export.NewTable("Ablation: overhead trimming and T4 policy (V100, signed E2E error)",
		"variant", "model", "batch", "e2e_err")
	for _, r := range rows {
		t.AddRow(r.Variant, r.Model, r.Batch, export.Pct(r.E2EErr))
	}
	return t.Render()
}
