package engine

import (
	"testing"

	"dlrmperf/internal/graph"
	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/scenario"
	"dlrmperf/internal/workload"
)

// TestScenarioShapeSharedAcrossBatches: two batch sizes of one
// multi-GPU scenario compile against one shape, so their results share
// one *scenario.Plan and their views bind one set of shard structures;
// the second batch builds nothing in the graphs class. Devices holding
// identical shards share a view, devices holding different ones do not.
func TestScenarioShapeSharedAcrossBatches(t *testing.T) {
	for _, c := range []struct {
		name     string
		distinct int // shard structures across the 4 devices
	}{{"dlrm-uniform-4gpu", 1}, {"dlrm-criteo-4gpu", 4}} {
		t.Run(c.name, func(t *testing.T) {
			e := New(tinyOptions(7))
			spec, err := scenario.Build(c.name, 1024, 0)
			if err != nil {
				t.Fatal(err)
			}
			first := e.Predict(Request{Device: hw.V100, Scenario: spec})
			if first.Err != nil {
				t.Fatal(first.Err)
			}
			built := e.AssetStats().Class("graphs")
			spec.Batch += 36
			second := e.Predict(Request{Device: hw.V100, Scenario: spec})
			if second.Err != nil || second.CacheHit {
				t.Fatalf("second batch: err %v, cache hit %v", second.Err, second.CacheHit)
			}
			if first.Plan == nil || first.Plan != second.Plan {
				t.Errorf("plans %p and %p: two batches of one scenario should share one", first.Plan, second.Plan)
			}
			if g := e.AssetStats().Class("graphs"); g.Misses != built.Misses || g.Resident != built.Resident {
				t.Errorf("the second batch built %d graphs-class entries", g.Misses-built.Misses)
			}

			a, err := e.compile(Request{Device: hw.V100, Scenario: spec})
			if err != nil {
				t.Fatal(err)
			}
			defer a.release()
			spec.Batch += 36
			b, err := e.compile(Request{Device: hw.V100, Scenario: spec})
			if err != nil {
				t.Fatal(err)
			}
			defer b.release()
			if a.shape != b.shape || a.shape.plan != first.Plan {
				t.Fatal("two compiles of one scenario hold different shapes")
			}
			views := map[*graph.Graph]bool{}
			for d := range a.graphs {
				if &a.graphs[d].Nodes[0] != &b.graphs[d].Nodes[0] {
					t.Errorf("device %d: the two batches bind different structures", d)
				}
				views[a.graphs[d]] = true
			}
			if len(views) != c.distinct {
				t.Errorf("%d distinct views over 4 devices, want %d", len(views), c.distinct)
			}
		})
	}
}

// TestOneDeviceShapeIsTheModel: a one-device request of a family's own
// tables binds the "model/<workload>" structure that simulated runs
// bind, not a second copy of it, and its result carries no multi-GPU
// breakdown.
func TestOneDeviceShapeIsTheModel(t *testing.T) {
	e := New(tinyOptions(7))
	req := NewRequest(hw.V100, models.NameDLRMMLPerf, 1000)
	pl, err := e.compile(req)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.release()
	m, err := e.Model(models.NameDLRMMLPerf, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.graphs) != 1 || &pl.graphs[0].Nodes[0] != &m.Graph.Nodes[0] || pl.shape.plan != nil {
		t.Errorf("one-device shape %+v does not bind the model structure", pl.shape)
	}
	if res := e.Predict(req); res.Err != nil || res.Multi != nil || res.Plan != nil {
		t.Errorf("one-device result: err %v, multi %v, plan %v", res.Err, res.Multi, res.Plan)
	}
}

// TestMalformedShardedSpecFailsBeforeCalibrating: a sharded spec whose
// shape cannot be built fails, every time it is asked for, without
// calibrating the device and without leaving a shape behind.
func TestMalformedShardedSpecFailsBeforeCalibrating(t *testing.T) {
	e := New(tinyOptions(7))
	for _, spec := range []scenario.Spec{
		{Workload: models.NameDLRMDefault, Batch: 64, Devices: 16}, // 8 tables over 16 devices
		{Workload: models.NameResNet50, Batch: 64, Devices: 2, Tables: workload.UniformTables(2, 1000, 4)},
		{Workload: "no_such_model", Batch: 64, Devices: 2},
	} {
		for range 2 {
			if res := e.Predict(Request{Device: hw.V100, Scenario: spec}); res.Err == nil {
				t.Errorf("%+v: accepted", spec)
			}
		}
	}
	if got := e.CalibrationRuns(hw.V100); got != 0 {
		t.Errorf("malformed specs ran %d calibrations, want 0", got)
	}
	if g := e.AssetStats().Class("graphs"); g.Resident != 0 {
		t.Errorf("%d graphs-class entries resident after failed shapes", g.Resident)
	}
}
