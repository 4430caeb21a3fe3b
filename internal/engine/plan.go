package engine

import (
	"fmt"
	"slices"

	"dlrmperf/internal/graph"
	"dlrmperf/internal/models"
	"dlrmperf/internal/predict"
	"dlrmperf/internal/scenario"
	"dlrmperf/internal/workload"
	"dlrmperf/internal/xrand"
)

// CompiledPlan is one request resolved into directly executable form:
// the per-shard execution graphs, the greedy-LPT shard assignment, the
// resolved alpha-beta comm model, the collective payload sizes, and
// the device's bound predictor (calibrated kernel models + overhead
// database). Executing a plan is pure arithmetic — no graph
// construction, no shard planning, no comm-model resolution.
//
// A plan is transient: predictScenario compiles one per result-cache
// miss and drops it after execute. Everything costly it refers to is
// remembered by its own asset class, so compiling again is
// deterministic and ends in the same predictor calls on the same
// inputs.
type CompiledPlan struct {
	// graphs holds one execution graph per device (len 1 single-device):
	// views bound at the per-device batch, which this plan owns and
	// releases (release); devices with identical shards hold the same
	// view.
	graphs []*graph.Graph
	// plan is the embedding shard assignment (nil for single-device and
	// pure data-parallel scenarios).
	plan *scenario.Plan
	// comm is the resolved interconnect model (multi-device only).
	comm predict.CommModel
	// denseParams sizes the data-parallel all-reduce payload;
	// embActBytes the per-device all-to-all payload per direction.
	denseParams int64
	embActBytes int64
	// pred is the device's predictor: calibrated registry + the
	// requested overhead database.
	pred *predict.Predictor
	// multi selects the hybrid-parallel execution path.
	multi bool
}

// execute prices the compiled scenario: the Algorithm-1 walk of its
// graph, or the sharded walk plus collectives of a multi-device plan.
// A plan executes once: its views are released on the way out.
func (p *CompiledPlan) execute() (cached, error) {
	defer p.release()
	if !p.multi {
		pred, err := p.pred.Predict(p.graphs[0])
		if err != nil {
			return cached{}, err
		}
		return cached{pred: pred}, nil
	}
	mp, err := p.pred.PredictSharded(p.graphs, p.denseParams, p.embActBytes, p.comm)
	if err != nil {
		return cached{}, err
	}
	return cached{pred: mp.Prediction, multi: &mp, plan: p.plan}, nil
}

// release gives the plan's views back for the next bind to reuse
// (graph.Graph.Release) once its walk has read them: the result keeps
// nothing of a graph. A view several identical shards share is
// released once; a structure the plan walked as its own view is left
// alone by Release.
func (p *CompiledPlan) release() {
	for d, g := range p.graphs {
		if !slices.Contains(p.graphs[:d], g) {
			g.Release()
		}
	}
}

// compile resolves a request. Graphs and the shard plan are built
// BEFORE the device's assets are touched, so malformed scenarios
// (unknown workloads, unplannable shardings, custom tables on non-DLRM
// families) fail fast without ever triggering a calibration.
func (e *Engine) compile(req Request) (*CompiledPlan, error) {
	spec := req.Scenario
	if spec.NumDevices() == 1 {
		m, err := e.scenarioModel(spec)
		if err != nil {
			return nil, err
		}
		p, err := e.scenarioPredictor(req)
		if err != nil {
			return nil, err
		}
		return &CompiledPlan{graphs: []*graph.Graph{m.Graph}, pred: p}, nil
	}
	return e.compileMulti(req)
}

// compileMulti resolves a hybrid-parallel scenario: dense layers run
// data-parallel at the per-device batch, the embedding tables are
// sharded by the greedy planner, and collectives come from the spec's
// alpha-beta comm model. CNN families degenerate to pure data
// parallelism (identical per-device graphs, all-reduce only).
func (e *Engine) compileMulti(req Request) (*CompiledPlan, error) {
	spec := req.Scenario
	n := spec.NumDevices()
	comm, err := predict.CommByName(spec.Comm)
	if err != nil {
		return nil, err
	}
	perDev := (spec.Batch + int64(n) - 1) / int64(n)

	cp := &CompiledPlan{comm: comm, multi: true}
	cfg, cfgErr := models.DLRMConfigFor(spec.Workload, spec.Batch)
	if cfgErr != nil {
		// Not a DLRM family: pure data parallelism over one shared graph.
		if len(spec.Tables) > 0 {
			return nil, fmt.Errorf("scenario: custom tables need a DLRM family: %w", cfgErr)
		}
		m, err := e.scenarioModel(scenario.Single(spec.Workload, perDev))
		if err != nil {
			return nil, err
		}
		cp.graphs = make([]*graph.Graph, n)
		for d := range cp.graphs {
			cp.graphs[d] = m.Graph
		}
		cp.denseParams = m.Params
	} else {
		tables := spec.Tables
		if len(tables) == 0 {
			tables = scenario.TablesOf(cfg)
		}
		pl, err := scenario.PlanShards(tables, cfg.EmbDim, n)
		if err != nil {
			return nil, err
		}
		cp.plan = &pl
		cp.graphs = make([]*graph.Graph, n)
		keys := make([]string, n)
		kb := keyBufPool.Get().(*[]byte)
		defer keyBufPool.Put(kb)
		for d := 0; d < n; d++ {
			shard := pl.TablesFor(d, tables)
			// Key per-device graphs by shard *content*, so identical
			// shards (every uniform-table scenario) build one structure
			// and bind one view.
			*kb = shardGraphKey((*kb)[:0], spec.Workload, shard)
			if j := slices.IndexFunc(keys[:d], func(k string) bool { return k == string(*kb) }); j >= 0 {
				keys[d], cp.graphs[d] = keys[j], cp.graphs[j]
				continue
			}
			keys[d] = string(*kb)
			m, err := e.graph(keys[d], scenario.Spec{Workload: spec.Workload, Batch: perDev, Tables: shard}, buildDLRM)
			if err != nil {
				return nil, err
			}
			cp.graphs[d] = m.Graph
		}
		cp.denseParams = cfg.DenseParams()
		// All-to-all payload per device per direction: each device's
		// share of the full (B/n, T, D) embedding activation tensor.
		cp.embActBytes = perDev * int64(len(tables)) * cfg.EmbDim * 4
	}

	p, err := e.scenarioPredictor(req)
	if err != nil {
		return nil, err
	}
	cp.pred = p
	return cp, nil
}

// shardGraphKey renders "graph/<workload>/<hash16>" — a structure's
// identity: the batch size is not part of it — where the hash folds the
// shard's canonical tables key — built with append writers, hashing
// through b's spare capacity, so re-keying a shard costs no fmt
// machinery and no intermediate strings.
func shardGraphKey(b []byte, workloadName string, shard []workload.TableSpec) []byte {
	b = append(b, "graph/"...)
	b = append(b, workloadName...)
	b = append(b, '/')
	mark := len(b)
	b = scenario.AppendTablesKey(b, shard)
	h := xrand.HashBytes(b[mark:])
	return xrand.AppendHex16(b[:mark], h)
}
