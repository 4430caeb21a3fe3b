package experiments

import (
	"dlrmperf/internal/baselines"
	"dlrmperf/internal/engine"
	"dlrmperf/internal/export"
	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/perfmodel"
	"dlrmperf/internal/stats"
)

// --- Table IV: kernel-model errors ------------------------------------------

// Table04Cell is one (kernel row, device) error summary.
type Table04Cell struct {
	Row     string
	Device  string
	Summary stats.ErrorSummary
}

// Table04 calibrates and evaluates every kernel performance model on
// every device.
func (s *Suite) Table04() ([]Table04Cell, error) {
	var out []Table04Cell
	for _, dev := range s.opts.Devices {
		cal, err := s.Calibration(dev)
		if err != nil {
			return nil, err
		}
		for _, row := range perfmodel.Table4Rows() {
			out = append(out, Table04Cell{Row: row, Device: dev, Summary: cal.Eval(row)})
		}
	}
	return out, nil
}

// RenderTable04 renders Table IV with devices as column groups.
func RenderTable04(cells []Table04Cell, devices []string) string {
	t := export.NewTable("Table IV: kernel execution-time prediction error",
		append([]string{"kernel"}, expandCols(devices)...)...)
	byRow := map[string]map[string]stats.ErrorSummary{}
	var rows []string
	for _, c := range cells {
		if byRow[c.Row] == nil {
			byRow[c.Row] = map[string]stats.ErrorSummary{}
			rows = append(rows, c.Row)
		}
		byRow[c.Row][c.Device] = c.Summary
	}
	for _, row := range rows {
		cellsOut := []any{row}
		for _, dev := range devices {
			sm := byRow[row][dev]
			cellsOut = append(cellsOut,
				export.PctAbs(sm.GMAE), export.PctAbs(sm.Mean), export.PctAbs(sm.Std))
		}
		t.AddRow(cellsOut...)
	}
	return t.Render()
}

func expandCols(devices []string) []string {
	var cols []string
	for _, d := range devices {
		cols = append(cols, d+" GMAE", d+" mean", d+" std")
	}
	return cols
}

// --- Fig. 9 / Table V: E2E prediction -----------------------------------------

// Fig09Row is one (device, model, batch) evaluation cell.
type Fig09Row struct {
	Device string
	Model  string
	Batch  int64
	// Measured per-batch time and device active time, µs.
	MeasuredIter, MeasuredActive float64
	// Signed relative errors.
	ActiveErr, E2EErr, SharedErr, KernelOnlyErr float64
}

// Fig09 runs the full E2E evaluation: per-cell measured iteration time,
// GPU-active prediction error, Algorithm 1 E2E error with individual and
// shared overheads, and the kernel-only baseline.
func (s *Suite) Fig09() ([]Fig09Row, error) {
	var rows []Fig09Row
	for _, dev := range s.opts.Devices {
		shared, err := s.SharedOverheadDB(dev)
		if err != nil {
			return nil, err
		}
		for _, model := range models.DLRMNames() {
			db, err := s.OverheadDB(dev, model)
			if err != nil {
				return nil, err
			}
			pred, err := s.Predictor(dev, db)
			if err != nil {
				return nil, err
			}
			sharedPred, err := s.Predictor(dev, shared)
			if err != nil {
				return nil, err
			}
			for _, b := range s.opts.DLRMBatches {
				meas, err := s.Run(dev, model, b)
				if err != nil {
					return nil, err
				}
				m, err := s.Model(model, b)
				if err != nil {
					return nil, err
				}
				pr, err := pred.Predict(m.Graph)
				if err != nil {
					return nil, err
				}
				prShared, err := sharedPred.Predict(m.Graph)
				if err != nil {
					return nil, err
				}
				rows = append(rows, Fig09Row{
					Device: dev, Model: model, Batch: b,
					MeasuredIter:   meas.MeanIterTime,
					MeasuredActive: meas.MeanActiveTime,
					ActiveErr:      stats.RelErr(pr.Active, meas.MeanActiveTime),
					E2EErr:         stats.RelErr(pr.E2E, meas.MeanIterTime),
					SharedErr:      stats.RelErr(prShared.E2E, meas.MeanIterTime),
					KernelOnlyErr:  stats.RelErr(pr.Active, meas.MeanIterTime),
				})
			}
		}
	}
	return rows, nil
}

// RenderFig09 renders the evaluation rows.
func RenderFig09(rows []Fig09Row) string {
	t := export.NewTable("Fig 9: E2E per-batch training time prediction",
		"device", "model", "batch", "iter", "active_err", "e2e_err", "shared_e2e_err", "kernel_only_err")
	for _, r := range rows {
		t.AddRow(r.Device, r.Model, r.Batch, export.Ms(r.MeasuredIter),
			export.Pct(r.ActiveErr), export.Pct(r.E2EErr),
			export.Pct(r.SharedErr), export.Pct(r.KernelOnlyErr))
	}
	return t.Render()
}

// Table05Row aggregates one error family on one platform (or Overall).
type Table05Row struct {
	Metric  string // Active | E2E | Shared E2E
	Device  string // platform name or "Overall"
	Geomean float64
	Min     float64
	Max     float64
}

// Table05 aggregates Fig. 9 rows into the paper's Table V.
func Table05(rows []Fig09Row) []Table05Row {
	metrics := []struct {
		name string
		get  func(Fig09Row) float64
	}{
		{"Active", func(r Fig09Row) float64 { return abs(r.ActiveErr) }},
		{"E2E", func(r Fig09Row) float64 { return abs(r.E2EErr) }},
		{"Shared E2E", func(r Fig09Row) float64 { return abs(r.SharedErr) }},
	}
	devices := []string{"Overall"}
	seen := map[string]bool{}
	for _, r := range rows {
		if !seen[r.Device] {
			seen[r.Device] = true
			devices = append(devices, r.Device)
		}
	}
	var out []Table05Row
	for _, m := range metrics {
		for _, dev := range devices {
			var errs []float64
			for _, r := range rows {
				if dev == "Overall" || r.Device == dev {
					errs = append(errs, m.get(r))
				}
			}
			if len(errs) == 0 {
				continue
			}
			out = append(out, Table05Row{
				Metric: m.name, Device: dev,
				Geomean: stats.Geomean(errs),
				Min:     stats.Min(errs),
				Max:     stats.Max(errs),
			})
		}
	}
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// RenderTable05 renders Table V.
func RenderTable05(rows []Table05Row) string {
	t := export.NewTable("Table V: active and E2E prediction error statistics",
		"metric", "platform", "geomean", "min", "max")
	for _, r := range rows {
		t.AddRow(r.Metric, r.Device, export.PctAbs(r.Geomean), export.PctAbs(r.Min), export.PctAbs(r.Max))
	}
	return t.Render()
}

// --- Fig. 10: CNN comparison against Habitat and MLPredict ---------------------

// Fig10Row is one comparison cell.
type Fig10Row struct {
	Device string
	Model  string
	Batch  int64
	// Measured per-batch time, µs.
	Measured float64
	// Signed relative errors of the three predictors.
	Ours, Habitat, MLPredict float64
}

// Fig10 compares the paper's predictor against the Habitat-like and
// MLPredict-like baselines on ResNet-50 and Inception-V3.
func (s *Suite) Fig10() ([]Fig10Row, error) {
	var rows []Fig10Row
	cnnModels := []string{models.NameResNet50, models.NameInceptionV3}
	for _, dev := range s.opts.Devices {
		p, err := hw.ByName(dev)
		if err != nil {
			return nil, err
		}
		// Habitat scales from a different base GPU.
		baseName := hw.V100
		if dev == hw.V100 {
			baseName = hw.P100
		}
		base, err := hw.ByName(baseName)
		if err != nil {
			return nil, err
		}
		mlpred := baselines.TrainMLPredict(p, s.opts.Seed+engine.DeviceSalt(dev)+5)

		for _, model := range cnnModels {
			// Individual CNN overheads for our predictor.
			db, err := s.OverheadDB(dev, model)
			if err != nil {
				return nil, err
			}
			pred, err := s.Predictor(dev, db)
			if err != nil {
				return nil, err
			}
			for _, b := range s.opts.CNNBatches {
				meas, err := s.Run(dev, model, b)
				if err != nil {
					return nil, err
				}
				m, err := s.Model(model, b)
				if err != nil {
					return nil, err
				}
				pr, err := pred.Predict(m.Graph)
				if err != nil {
					return nil, err
				}
				hab := &baselines.Habitat{Base: base, Target: p, Seed: s.opts.Seed + 91}
				habPred := hab.Predict(m.Graph, model)
				mlPred := mlpred.Predict(m.Graph)
				rows = append(rows, Fig10Row{
					Device: dev, Model: model, Batch: b,
					Measured:  meas.MeanIterTime,
					Ours:      stats.RelErr(pr.E2E, meas.MeanIterTime),
					Habitat:   stats.RelErr(habPred, meas.MeanIterTime),
					MLPredict: stats.RelErr(mlPred, meas.MeanIterTime),
				})
			}
		}
	}
	return rows, nil
}

// RenderFig10 renders the comparison.
func RenderFig10(rows []Fig10Row) string {
	t := export.NewTable("Fig 10: E2E prediction error on CNNs vs Habitat and MLPredict",
		"device", "model", "batch", "iter", "ours", "habitat", "mlpredict")
	for _, r := range rows {
		t.AddRow(r.Device, r.Model, r.Batch, export.Ms(r.Measured),
			export.Pct(r.Ours), export.Pct(r.Habitat), export.Pct(r.MLPredict))
	}
	return t.Render()
}
