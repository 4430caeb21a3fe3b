package engine

import (
	"fmt"

	"dlrmperf/internal/models"
	"dlrmperf/internal/overhead"
	"dlrmperf/internal/predict"
	"dlrmperf/internal/scenario"
	"dlrmperf/internal/workload"
)

// predictScenario computes one request that missed the result cache.
// The steady-state path resolves the request to a CompiledPlan —
// memoized in the plans class under the request key — and executes it:
// plan lookup + arithmetic, with zero graph reconstruction, zero shard
// re-planning, and zero key formatting beyond one pooled-buffer
// append. A cached plan and a from-scratch compile end in identical
// predictor calls on identical inputs, so their results are
// bit-identical (plan_test.go compares them across the registry).
func (e *Engine) predictScenario(req Request) (cached, error) {
	cs := e.store.class(classPlan)
	kb := keyBufPool.Get().(*[]byte)
	buf := append((*kb)[:0], "plan/"...)
	buf = req.appendKey(buf)
	if v, ok := cs.getBytes(buf); ok {
		*kb = buf
		keyBufPool.Put(kb)
		cs.hits.Add(1)
		return v.(*CompiledPlan).execute()
	}
	key := string(buf)
	*kb = buf
	keyBufPool.Put(kb)
	pl, err := memo(e, classPlan, key, func() (*CompiledPlan, error) {
		return e.compile(req)
	})
	if err != nil {
		return cached{}, err
	}
	return pl.execute()
}

// scenarioPredictor assembles the device's predictor for a request:
// calibrated kernel models plus the requested overhead database.
func (e *Engine) scenarioPredictor(req Request) (*predict.Predictor, error) {
	cal, err := e.Calibration(req.Device)
	if err != nil {
		return nil, err
	}
	var db *overhead.DB
	if req.Shared {
		db, err = e.SharedOverheadDB(req.Device)
	} else {
		db, err = e.OverheadDB(req.Device, req.Scenario.Workload)
	}
	if err != nil {
		return nil, err
	}
	return predict.New(cal.Registry, db), nil
}

// scenarioModel returns the single-device execution graph of a spec;
// custom table populations are memoized under the scenario fingerprint.
func (e *Engine) scenarioModel(spec scenario.Spec) (*models.Model, error) {
	if len(spec.Tables) == 0 {
		return e.Model(spec.Workload, spec.Batch)
	}
	key := "graph/" + spec.Fingerprint()
	return memo(e, classGraph, key, func() (*models.Model, error) {
		cfg, err := models.DLRMConfigFor(spec.Workload, spec.Batch)
		if err != nil {
			return nil, fmt.Errorf("scenario: custom tables need a DLRM family: %w", err)
		}
		return models.BuildDLRM(specializeDLRM(cfg, spec.Batch, spec.Tables))
	})
}

// specializeDLRM overrides a family template with a table population —
// the builder models one pooling factor and skew, so heterogeneous
// populations contribute their means.
func specializeDLRM(cfg models.DLRMConfig, batch int64, tables []workload.TableSpec) models.DLRMConfig {
	cfg.Batch = batch
	cfg.EmbRows = workload.Rows(tables)
	cfg.Lookups = workload.MeanLookups(tables)
	cfg.ZipfSkew = workload.MeanSkew(tables)
	return cfg
}
