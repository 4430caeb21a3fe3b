package experiments

import (
	"sort"

	"dlrmperf/internal/export"
	"dlrmperf/internal/models"
	"dlrmperf/internal/overhead"
	"dlrmperf/internal/sim"
)

// --- Fig. 1: GPU utilization of six models ---------------------------------

// Fig01Row is one bar of Fig. 1.
type Fig01Row struct {
	Model       string
	Batch       int64
	Utilization float64
	IterTime    float64 // µs
}

// Fig01 measures GPU utilization of the six models on V100, over the
// batch ranges the paper plots.
func (s *Suite) Fig01() ([]Fig01Row, error) {
	type cfg struct {
		model   string
		batches []int64
	}
	cfgs := []cfg{
		{models.NameDLRMDefault, s.opts.DLRMBatches},
		{models.NameDLRMMLPerf, s.opts.DLRMBatches},
		{models.NameDLRMDDP, s.opts.DLRMBatches},
		{models.NameResNet50, s.opts.CNNBatches},
		{models.NameInceptionV3, s.opts.CNNBatches},
		{models.NameTransformer, []int64{64, 128, 256, 512}},
	}
	var rows []Fig01Row
	for _, c := range cfgs {
		for _, b := range c.batches {
			r, err := s.Run("V100", c.model, b)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig01Row{
				Model: c.model, Batch: b,
				Utilization: r.Utilization(),
				IterTime:    r.MeanIterTime,
			})
		}
	}
	return rows, nil
}

// RenderFig01 renders Fig. 1 as a table.
func RenderFig01(rows []Fig01Row) string {
	t := export.NewTable("Fig 1: GPU utilization of per-batch training time (V100)",
		"model", "batch", "utilization", "iter_time")
	for _, r := range rows {
		t.AddRow(r.Model, r.Batch, export.PctAbs(r.Utilization), export.Ms(r.IterTime))
	}
	return t.Render()
}

// --- Fig. 5: device time breakdown ------------------------------------------

// Fig05Result is the breakdown for one DLRM model.
type Fig05Result struct {
	Model   string
	Batch   int64
	Entries []sim.BreakdownEntry
}

// Fig05 computes the device-time breakdown of the three DLRM models at
// batch 2048 on V100, idle time included.
func (s *Suite) Fig05() ([]Fig05Result, error) {
	var out []Fig05Result
	for _, model := range models.DLRMNames() {
		r, err := s.Run("V100", model, 2048)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig05Result{
			Model: model, Batch: 2048,
			Entries: r.Breakdown(0.005),
		})
	}
	return out, nil
}

// RenderFig05 renders the breakdowns.
func RenderFig05(res []Fig05Result) string {
	out := ""
	for _, r := range res {
		t := export.NewTable("Fig 5: device time breakdown — "+r.Model+" (B=2048, V100)",
			"op", "time", "share")
		for _, e := range r.Entries {
			t.AddRow(e.Op, export.Us(e.Time), export.PctAbs(e.Share))
		}
		out += t.Render() + "\n"
	}
	return out
}

// --- Fig. 7: T1 overhead stability -------------------------------------------

// Fig07Row is the T1 statistic of one (model, batch) cell.
type Fig07Row struct {
	Model string
	Batch int64
	Mean  float64
	Std   float64
}

// Fig07 extracts T1 statistics per model and batch size on V100, the
// model/size-independence evidence.
func (s *Suite) Fig07() ([]Fig07Row, error) {
	var rows []Fig07Row
	for _, model := range models.DLRMNames() {
		for _, b := range s.opts.DLRMBatches {
			db, err := overhead.NewCollector().Pool(1, 1, func(int) (*overhead.Samples, error) {
				return s.Samples("V100", model, b)
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig07Row{Model: model, Batch: b, Mean: db.T1.Mean, Std: db.T1.Std})
		}
	}
	return rows, nil
}

// RenderFig07 renders the T1 table.
func RenderFig07(rows []Fig07Row) string {
	t := export.NewTable("Fig 7: T1 overhead mean/std across models and batch sizes (V100)",
		"model", "batch", "mean_us", "std_us")
	for _, r := range rows {
		t.AddRow(r.Model, r.Batch, r.Mean, r.Std)
	}
	return t.Render()
}

// --- Fig. 8: per-op T2/T3/T5 overheads -----------------------------------------

// Fig08Row is one (op, model) cell of one overhead type.
type Fig08Row struct {
	Type  string // T2 | T3 | T5
	Op    string
	Model string
	Mean  float64
	Std   float64
}

// Fig08 extracts T2/T3/T5 statistics for the ten most device-dominating
// ops of each DLRM model on V100.
func (s *Suite) Fig08() ([]Fig08Row, error) {
	var rows []Fig08Row
	for _, model := range models.DLRMNames() {
		// Determine the ten most dominating ops from the breakdown.
		meas, err := s.Run("V100", model, 2048)
		if err != nil {
			return nil, err
		}
		var topOps []string
		for _, e := range meas.Breakdown(0) {
			if e.Op == "Idle" || e.Op == "others" {
				continue
			}
			topOps = append(topOps, e.Op)
			if len(topOps) == 10 {
				break
			}
		}
		db, err := s.OverheadDB("V100", model)
		if err != nil {
			return nil, err
		}
		for _, op := range topOps {
			st, ok := db.PerOp[op]
			if !ok {
				continue
			}
			for t, name := range []string{"T2", "T3", "T5"} {
				if st[t].N == 0 {
					continue
				}
				rows = append(rows, Fig08Row{
					Type: name, Op: op, Model: model,
					Mean: st[t].Mean, Std: st[t].Std,
				})
			}
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Type != rows[j].Type {
			return rows[i].Type < rows[j].Type
		}
		return rows[i].Op < rows[j].Op
	})
	return rows, nil
}

// RenderFig08 renders the per-op overhead table.
func RenderFig08(rows []Fig08Row) string {
	t := export.NewTable("Fig 8: T2/T3/T5 overheads of dominating ops (V100)",
		"type", "op", "model", "mean_us", "std_us")
	for _, r := range rows {
		t.AddRow(r.Type, r.Op, r.Model, r.Mean, r.Std)
	}
	return t.Render()
}
