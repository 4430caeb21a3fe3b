package engine

import (
	"reflect"
	"sync"
	"testing"

	"dlrmperf/internal/graph"
	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/ops"
	"dlrmperf/internal/predict"
	"dlrmperf/internal/scenario"
)

// scratchPredict is the structure-sharing oracle: it resolves req with
// every execution graph built from nothing at the requested batch — one
// build per device, nothing memoized, nothing bound — and prices it
// with e's own calibration and overhead database.
func scratchPredict(t *testing.T, e *Engine, req Request) cached {
	t.Helper()
	spec := req.Scenario
	pred, err := e.scenarioPredictor(req)
	if err != nil {
		t.Fatal(err)
	}
	n := spec.NumDevices()
	if n == 1 {
		m, err := buildDLRM(nil, spec)
		if len(spec.Tables) == 0 {
			m, err = models.Build(spec.Workload, spec.Batch)
		}
		if err != nil {
			t.Fatal(err)
		}
		p, err := pred.Predict(m.Graph)
		if err != nil {
			t.Fatal(err)
		}
		return cached{pred: p}
	}
	comm, err := predict.CommByName(spec.Comm)
	if err != nil {
		t.Fatal(err)
	}
	perDev := (spec.Batch + int64(n) - 1) / int64(n)
	graphs := make([]*graph.Graph, n)
	var plan *scenario.Plan
	var denseParams, embActBytes int64
	if cfg, err := models.DLRMConfigFor(spec.Workload, spec.Batch); err != nil {
		for d := range graphs {
			m, err := models.Build(spec.Workload, perDev)
			if err != nil {
				t.Fatal(err)
			}
			graphs[d], denseParams = m.Graph, m.Params
		}
	} else {
		tables := spec.Tables
		if len(tables) == 0 {
			tables = scenario.TablesOf(cfg)
		}
		pl, err := scenario.PlanShards(tables, cfg.EmbDim, n)
		if err != nil {
			t.Fatal(err)
		}
		plan = &pl
		for d := range graphs {
			m, err := buildDLRM(nil, scenario.Spec{Workload: spec.Workload, Batch: perDev, Tables: pl.TablesFor(d, tables)})
			if err != nil {
				t.Fatal(err)
			}
			graphs[d] = m.Graph
		}
		denseParams = cfg.DenseParams()
		embActBytes = perDev * int64(len(tables)) * cfg.EmbDim * 4
	}
	mp, err := pred.PredictSharded(graphs, denseParams, embActBytes, comm)
	if err != nil {
		t.Fatal(err)
	}
	return cached{pred: mp.Prediction, multi: &mp, plan: plan}
}

func sameResult(t *testing.T, label string, got Result, want cached) {
	t.Helper()
	if got.Err != nil {
		t.Fatalf("%s: %v", label, got.Err)
	}
	if !reflect.DeepEqual(got.Prediction, want.pred) {
		t.Errorf("%s: prediction %+v, want %+v", label, got.Prediction, want.pred)
	}
	if !reflect.DeepEqual(got.Multi, want.multi) {
		t.Errorf("%s: multi-GPU breakdown %+v, want %+v", label, got.Multi, want.multi)
	}
	if !reflect.DeepEqual(got.Plan, want.plan) {
		t.Errorf("%s: shard plan %+v, want %+v", label, got.Plan, want.plan)
	}
}

// TestNovelBatchOrderIndependent: a request at a batch size the engine
// has never seen answers bit-identically whichever batch first built
// the structure it binds — another batch of the same scenario, or the
// request itself — and identically to graphs built from nothing. Every
// registered scenario (single device, 2 and 4 GPUs, uniform and
// heterogeneous shards, custom tables, data-parallel CNNs), with the
// workload's own and the shared overhead database.
func TestNovelBatchOrderIndependent(t *testing.T) {
	warmed := New(planOptions(7)) // binds the batch under test to a structure another batch built
	direct := New(planOptions(7)) // builds each structure at the batch under test
	for i, name := range scenario.Names() {
		spec, err := scenario.Build(name, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, dlrmErr := models.DLRMConfigFor(spec.Workload, spec.Batch)
		for _, shared := range []bool{false, true} {
			if shared && dlrmErr != nil {
				continue // the shared database pools the DLRM families only
			}
			req := Request{Device: hw.V100, Scenario: spec, Shared: shared}
			first := req
			first.Scenario.Batch = 2 * spec.Batch
			if res := warmed.Predict(first); res.Err != nil {
				t.Fatalf("%s at first batch: %v", name, res.Err)
			}
			// Odd on purpose: the per-device batch rounds up.
			req.Scenario.Batch = spec.Batch + int64(2*i+1)
			got := warmed.Predict(req)
			if got.CacheHit {
				t.Fatalf("%s: novel batch %d answered from the result cache", name, req.Scenario.Batch)
			}
			want := direct.Predict(req)
			if want.Err != nil {
				t.Fatalf("%s: %v", name, want.Err)
			}
			label := req.Key()
			sameResult(t, label+" vs structure built at this batch", got, cached{want.Prediction, want.Multi, want.Plan})
			sameResult(t, label+" vs from scratch", got, scratchPredict(t, direct, req))
		}
	}
	// No batch size is a key: the graphs class holds one entry per
	// structure however many batches were asked for.
	w, d := warmed.AssetStats().Class("graphs"), direct.AssetStats().Class("graphs")
	if w.Resident != d.Resident || w.Evictions != 0 {
		t.Errorf("graphs class: %d resident after two batches per scenario, %d after one; %d evictions",
			w.Resident, d.Resident, w.Evictions)
	}
}

// TestConcurrentBindsShareOneStructure: many goroutines binding
// different batch sizes to one resident structure at once (run under
// -race) each get the answer a lone caller gets.
func TestConcurrentBindsShareOneStructure(t *testing.T) {
	e, lone := New(tinyOptions(7)), New(tinyOptions(7))
	spec, err := scenario.Build("dlrm-criteo-4gpu", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res := e.Predict(Request{Device: hw.V100, Scenario: spec}); res.Err != nil { // structures resident
		t.Fatal(res.Err)
	}
	built := e.AssetStats().Class("graphs").Misses
	const n = 16
	got := make([]Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := Request{Device: hw.V100, Scenario: spec}
			req.Scenario.Batch += int64(4 * (i/2 + 1)) // pairs collide on purpose
			got[i] = e.Predict(req)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		want := lone.Predict(g.Request)
		if want.Err != nil {
			t.Fatal(want.Err)
		}
		sameResult(t, g.Request.Key(), got[i], cached{want.Prediction, want.Multi, want.Plan})
	}
	if c := e.AssetStats().Class("graphs"); c.Misses != built {
		t.Errorf("binding built %d more structures", c.Misses-built)
	}
}

// TestTransformOnCloneLeavesStructureShared pins the graph package's
// sharing rule from the engine's side: a what-if transform belongs on a
// Clone of a bound view; the resident structure, and every other view
// of it, is untouched by it.
func TestTransformOnCloneLeavesStructureShared(t *testing.T) {
	e := New(tinyOptions(7))
	structure, err := e.Model(models.NameDLRMDefault, 512)
	if err != nil {
		t.Fatal(err)
	}
	view, err := e.Model(models.NameDLRMDefault, 640)
	if err != nil {
		t.Fatal(err)
	}
	if view.Graph == structure.Graph || &view.Graph.Nodes[0] != &structure.Graph.Nodes[0] {
		t.Fatal("a second batch should be a new view over the same nodes")
	}
	db, err := e.OverheadDB(hw.V100, models.NameDLRMDefault)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := e.Predictor(hw.V100, db)
	if err != nil {
		t.Fatal(err)
	}
	before, err := pred.Predict(view.Graph)
	if err != nil {
		t.Fatal(err)
	}

	whatIf := view.Graph.Clone()
	// Fold the loss into its backward, one node computing the gradient.
	var loss []graph.NodeID
	for _, n := range whatIf.Nodes {
		if name := whatIf.Op(&n).Name(); name == "aten::mse_loss" || name == "MseLossBackward0" {
			loss = append(loss, n.ID)
		}
	}
	if _, err := whatIf.ReplaceNodes(loss, ops.MSELossBackward()); err != nil {
		t.Fatal(err)
	}
	if v, err := whatIf.WithBatch(64); err != nil {
		t.Fatal(err)
	} else if v.BatchSize() != 64 {
		t.Fatalf("the transformed clone bound at batch %d, want 64", v.BatchSize())
	}

	for _, m := range []*models.Model{structure, view} {
		if len(m.Graph.Nodes) != len(whatIf.Nodes)+1 {
			t.Errorf("batch %d: node list changed under a clone's transform", m.Graph.BatchSize())
		}
	}
	if structure.Graph.BatchSize() != 512 || view.Graph.BatchSize() != 640 {
		t.Errorf("batch sizes now %d and %d", structure.Graph.BatchSize(), view.Graph.BatchSize())
	}
	after, err := pred.Predict(view.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Error("the view predicts differently after a clone was transformed")
	}
}
