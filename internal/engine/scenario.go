package engine

import (
	"fmt"

	"dlrmperf/internal/models"
	"dlrmperf/internal/overhead"
	"dlrmperf/internal/predict"
	"dlrmperf/internal/scenario"
	"dlrmperf/internal/workload"
)

// predictScenario computes one request that missed the result cache —
// the result class's builder: compile the request, execute the plan,
// release its views, forget it. A plan shares the request's identity
// with its result, so it could only ever be re-read after that result
// was evicted; the pieces worth remembering (the calibration, the
// overhead database, the graph structures and the scenario's shape)
// sit in their own classes, and what is left of a compile is one shape
// propagation per distinct shard, into a recycled shape table.
//
// It reaches the compile and bind step of every miss, but request is
// handed it as a method expression, so no call edge leads to it: it is
// a root by its own directive.
//
//lint:hotpath root
func (e *Engine) predictScenario(req *Request) (any, error) {
	pl, err := e.compile(*req)
	if err != nil {
		return nil, err
	}
	return pl.execute()
}

// scenarioPredictor assembles the device's predictor for a request:
// calibrated kernel models plus the requested overhead database.
//
//lint:hotpath stop the device's asset assembly on a miss may format errors and concatenate keys
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

// buildDLRM builds the DLRM family spec.Workload at spec.Batch with the
// family template's tables overridden by spec.Tables (possibly none: a
// device the sharding planner left empty) — the builder models one
// pooling factor and skew, so heterogeneous populations contribute
// their means.
func buildDLRM(_ *Engine, spec scenario.Spec) (*models.Model, error) {
	cfg, err := models.DLRMConfigFor(spec.Workload, spec.Batch)
	if err != nil {
		return nil, fmt.Errorf("scenario: custom tables need a DLRM family: %w", err)
	}
	cfg.EmbRows = workload.Rows(spec.Tables)
	cfg.Lookups = workload.MeanLookups(spec.Tables)
	cfg.ZipfSkew = workload.MeanSkew(spec.Tables)
	return models.BuildDLRM(cfg)
}

// buildShard is the graphs class's builder of a DLRM shard: buildDLRM's
// model, stored as a structure like buildModel's.
func buildShard(e *Engine, spec scenario.Spec) (*models.Model, error) {
	return structure(buildDLRM(e, spec))
}
