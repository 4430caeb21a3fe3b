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

// scenarioShape is everything a compile derives from a scenario but its
// batch: the shard plan, each device's graph structure, and the
// batch-independent factors of the collective payloads. A sharded
// scenario is a structure the way a graph is (Engine.graph): the graphs
// class holds one shape per (workload, table population, device count),
// whichever batch asks first builds it, and a miss binds its shards at
// the per-device batch without planning anything. A shape is read-only
// once built, so every result of the scenario shares its plan.
type scenarioShape struct {
	// plan is the embedding shard assignment; nil when every device runs
	// the family's own structure (one device, or pure data parallelism).
	plan   *scenario.Plan
	shards []shardShape
	// denseParams sizes the data-parallel all-reduce; a2aRowBytes is one
	// batch row's share of a device's all-to-all payload per direction.
	denseParams, a2aRowBytes int64
}

// shardShape is one device's graph structure.
type shardShape struct {
	// key names the structure in the graphs class.
	key string
	// tables is the device's shard; nil for the family's own structure
	// ("model/<workload>", the one simulated runs bind too).
	tables []workload.TableSpec
	// first is the first device holding an identical shard (its own
	// index when no device before it does): those devices share a view.
	first int
}

// buildShape is the graphs class's builder for a scenario shape. A DLRM
// family with custom tables, or across several devices, is sharded by
// the greedy LPT planner, and each shard is keyed by its content, so
// identical shards (every uniform-table scenario) share one structure.
// Any other scenario runs the family's own structure on every device.
func buildShape(e *Engine, spec scenario.Spec) (*scenarioShape, error) {
	n := spec.NumDevices()
	sh := &scenarioShape{shards: make([]shardShape, n)}
	cfg, cfgErr := models.DLRMConfigFor(spec.Workload, spec.Batch)
	if cfgErr != nil || (n == 1 && len(spec.Tables) == 0) {
		if len(spec.Tables) > 0 {
			return nil, fmt.Errorf("scenario: custom tables need a DLRM family: %w", cfgErr)
		}
		key := "model/" + spec.Workload
		m, err := e.graph(key, spec, buildModel)
		if err != nil {
			return nil, err
		}
		for d := range sh.shards {
			sh.shards[d].key = key
		}
		sh.denseParams = m.Params
		return sh, nil
	}
	tables := spec.Tables
	if len(tables) == 0 {
		tables = scenario.TablesOf(cfg)
	}
	pl, err := scenario.PlanShards(tables, cfg.EmbDim, n)
	if err != nil {
		return nil, err
	}
	sh.plan = &pl
	for d := range sh.shards {
		s := &sh.shards[d]
		s.tables = pl.TablesFor(d, tables)
		s.key = string(structureKey(nil, "graph/", &scenario.Spec{Workload: spec.Workload, Tables: s.tables}))
		// Devices after d have no key yet: the match is at d or before.
		s.first = slices.IndexFunc(sh.shards, func(o shardShape) bool { return o.key == s.key })
	}
	sh.denseParams = cfg.DenseParams()
	// A device's share of the (B/n, T, D) embedding activation tensor.
	sh.a2aRowBytes = int64(len(tables)) * cfg.EmbDim * 4
	return sh, nil
}

// structureKey renders prefix followed by the hash of the canonical
// encoding of spec with its batch and interconnect cleared: the identity
// of everything built from spec, whatever the batch, hashed through b's
// spare capacity so keying a miss costs no fmt machinery and no
// intermediate strings. A scenario's shape is "scen/<hash16>", a shard
// structure "graph/<hash16>" over a one-device spec of its tables.
func structureKey(b []byte, prefix string, spec *scenario.Spec) []byte {
	id := scenario.Spec{Workload: spec.Workload, Tables: spec.Tables, Devices: spec.Devices}
	b = append(b, prefix...)
	mark := len(b)
	b = id.AppendCanonical(b)
	return xrand.AppendHex16(b[:mark], xrand.HashBytes(b[mark:]))
}

// CompiledPlan is one request resolved into directly executable form:
// the scenario's shape, one execution graph per device bound at the
// per-device batch, the resolved alpha-beta comm model, and the device's
// bound predictor (calibrated kernel models + overhead database).
// Executing a plan is pure arithmetic — no graph construction, no shard
// planning, no comm-model resolution.
//
// A plan is transient: predictScenario compiles one per result-cache
// miss and drops it after execute. Everything costly it refers to is
// remembered by its own asset class, so compiling again is
// deterministic and ends in the same predictor calls on the same
// inputs.
type CompiledPlan struct {
	// graphs holds one execution graph per device: views bound at
	// perDev, which this plan owns and releases (release); devices with
	// identical shards hold the same view.
	graphs []*graph.Graph
	shape  *scenarioShape
	perDev int64
	comm   predict.CommModel
	pred   *predict.Predictor
}

// compile resolves a request, one device or several alike: look up the
// scenario's shape, bind each distinct shard at the per-device batch,
// then assemble the device's predictor. The shape and the graphs come
// BEFORE the device's assets are touched, so malformed scenarios
// (unknown workloads, unplannable shardings, custom tables on non-DLRM
// families) fail fast without ever triggering a calibration.
func (e *Engine) compile(req Request) (*CompiledPlan, error) {
	spec := &req.Scenario
	kb := keyBufPool.Get().(*[]byte)
	*kb = structureKey((*kb)[:0], "scen/", spec)
	sh, _, err := memo(e, classGraph, string(*kb), *spec, buildShape)
	keyBufPool.Put(kb)
	if err != nil {
		return nil, err
	}
	n := int64(len(sh.shards))
	cp := &CompiledPlan{graphs: make([]*graph.Graph, n), shape: sh, perDev: (spec.Batch + n - 1) / n}
	for d, s := range sh.shards {
		if s.first < d {
			cp.graphs[d] = cp.graphs[s.first]
			continue
		}
		build := buildShard
		if s.tables == nil {
			build = buildModel
		}
		m, err := e.graph(s.key, scenario.Spec{Workload: spec.Workload, Batch: cp.perDev, Tables: s.tables}, build)
		if err != nil {
			return nil, err
		}
		if cp.graphs[d], err = m.Graph.WithBatch(cp.perDev); err != nil {
			return nil, err
		}
	}
	if cp.comm, err = predict.CommByName(spec.Comm); err != nil {
		return nil, err
	}
	if cp.pred, err = e.scenarioPredictor(req); err != nil {
		return nil, err
	}
	return cp, nil
}

// execute prices the compiled scenario: the sharded walk plus
// collectives, which over one device is the Algorithm-1 walk of its
// graph. A single-device result carries no multi-GPU breakdown. A plan
// executes once: its views are released on the way out.
//
// It runs on every result-cache miss.
//
//lint:hotpath root
func (p *CompiledPlan) execute() (cached, error) {
	defer p.release()
	mp, err := p.pred.PredictSharded(p.graphs, p.shape.denseParams, p.perDev*p.shape.a2aRowBytes, p.comm)
	if err != nil {
		return cached{}, err
	}
	if len(p.graphs) == 1 {
		return cached{pred: mp.Prediction}, nil
	}
	multi := mp
	return cached{pred: mp.Prediction, multi: &multi, plan: p.shape.plan}, nil
}

// release gives the plan's views back for the next bind to reuse
// (graph.Graph.Release) once its walk has read them: the result keeps
// nothing of a graph. A view several identical shards share is
// released once.
func (p *CompiledPlan) release() {
	for d, g := range p.graphs {
		if p.shape.shards[d].first == d {
			g.Release()
		}
	}
}
