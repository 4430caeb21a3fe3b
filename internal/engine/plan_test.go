package engine

import (
	"reflect"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/scenario"
)

// planOptions enables CNN calibration so the bit-identity sweep can
// serve every registered scenario family, including the conv models.
func planOptions(seed uint64) Options {
	opts := tinyOptions(seed)
	opts.Calib.IncludeCNN = true
	return opts
}

// TestCompiledPlanBitIdentical is the tentpole's correctness contract:
// for every scenario in the registry — single-device, 2- and 4-GPU
// hybrid-parallel, custom table populations, CNN data-parallel — the
// compiled-plan path must return bit-identical predictions, multi-GPU
// breakdowns, and shard plans to resolving the request from scratch
// (the reference: compile + execute, the plan never stored).
func TestCompiledPlanBitIdentical(t *testing.T) {
	names := scenario.Names()
	if len(names) < 12 {
		t.Fatalf("registry too small for the sweep: %v", names)
	}

	compiled := New(planOptions(7))
	uncompiled := New(planOptions(7))
	// predictUncompiled is the oracle: compile the request from scratch
	// (graphs still memoize in the graphs class) and execute the
	// transient plan without storing it.
	predictUncompiled := func(req Request) Result {
		pl, err := uncompiled.compile(req)
		if err != nil {
			return Result{Request: req, Err: err}
		}
		c, err := pl.execute()
		if err != nil {
			return Result{Request: req, Err: err}
		}
		return Result{Request: req, Prediction: c.pred, Multi: c.multi, Plan: c.plan}
	}

	for _, name := range names {
		spec, err := scenario.Build(name, 0, 0)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		req := Request{Device: hw.V100, Scenario: spec}
		got := compiled.Predict(req)
		want := predictUncompiled(req)
		if got.Err != nil || want.Err != nil {
			t.Fatalf("%s errored: compiled=%v uncompiled=%v", name, got.Err, want.Err)
		}
		if !reflect.DeepEqual(got.Prediction, want.Prediction) {
			t.Errorf("%s: compiled prediction %+v != uncompiled %+v", name, got.Prediction, want.Prediction)
		}
		if !reflect.DeepEqual(got.Multi, want.Multi) {
			t.Errorf("%s: compiled multi-GPU breakdown differs: %+v vs %+v", name, got.Multi, want.Multi)
		}
		if !reflect.DeepEqual(got.Plan, want.Plan) {
			t.Errorf("%s: compiled shard plan differs: %+v vs %+v", name, got.Plan, want.Plan)
		}
	}

	// The compiled engine actually exercised the plans class; the
	// oracle engine never touched it.
	if c := compiled.AssetStats().Class("plans"); c.Resident == 0 || c.Misses == 0 {
		t.Errorf("compiled engine's plans class unused: %+v", c)
	}
	if c := uncompiled.AssetStats().Class("plans"); c.Resident != 0 || c.Misses != 0 {
		t.Errorf("oracle engine stored plans: %+v", c)
	}
}

// TestPlanEvictionRebuildIdentical thrashes the plans class at
// capacity 1 with an A/B/A request pattern (result cache disabled so
// every request re-executes its plan): plan A evicts, recompiles on
// return, and the rebuilt plan predicts bit-identically.
func TestPlanEvictionRebuildIdentical(t *testing.T) {
	opts := tinyOptions(7)
	opts.AssetCaps = AssetCaps{Plans: 1}
	opts.ResultCacheSize = -1
	e := New(opts)

	specA, err := scenario.Build("dlrm-uniform-2gpu", 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	specB, err := scenario.Build("dlrm-default", 512, 0)
	if err != nil {
		t.Fatal(err)
	}

	first := e.Predict(Request{Device: hw.V100, Scenario: specA})
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if res := e.Predict(Request{Device: hw.V100, Scenario: specB}); res.Err != nil {
		t.Fatal(res.Err)
	}
	again := e.Predict(Request{Device: hw.V100, Scenario: specA})
	if again.Err != nil {
		t.Fatal(again.Err)
	}

	if !reflect.DeepEqual(first.Prediction, again.Prediction) {
		t.Errorf("rebuilt plan prediction %+v != original %+v", again.Prediction, first.Prediction)
	}
	if !reflect.DeepEqual(first.Multi, again.Multi) {
		t.Errorf("rebuilt plan breakdown differs: %+v vs %+v", again.Multi, first.Multi)
	}
	if !reflect.DeepEqual(first.Plan, again.Plan) {
		t.Errorf("rebuilt shard plan differs: %+v vs %+v", again.Plan, first.Plan)
	}

	c := e.AssetStats().Class("plans")
	if c.Resident != 1 {
		t.Errorf("resident plans = %d, want 1", c.Resident)
	}
	if c.Evictions < 2 {
		t.Errorf("plan evictions = %d, want >= 2 under capacity 1", c.Evictions)
	}
	if c.Hits != 0 || c.Misses != 3 {
		t.Errorf("plan counters = %d/%d hit/miss, want 0/3", c.Hits, c.Misses)
	}
}

// TestCompiledPlanHit: repeated traffic on a warm engine with the
// result cache disabled serves from the compiled plan — one miss to
// build it, hits thereafter.
func TestCompiledPlanHit(t *testing.T) {
	opts := tinyOptions(7)
	opts.ResultCacheSize = -1
	e := New(opts)
	spec, err := scenario.Build("dlrm-uniform-2gpu", 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Device: hw.V100, Scenario: spec}
	var prev Result
	for i := 0; i < 4; i++ {
		res := e.Predict(req)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if i > 0 && !reflect.DeepEqual(res.Prediction, prev.Prediction) {
			t.Fatalf("iteration %d prediction drifted", i)
		}
		prev = res
	}
	c := e.AssetStats().Class("plans")
	if c.Misses != 1 || c.Hits != 3 {
		t.Errorf("plan counters = %d/%d hit/miss, want 3/1", c.Hits, c.Misses)
	}
}

// BenchmarkCompilePlan measures the cold cost a plan-cache miss pays:
// resolving a 2-GPU hybrid-parallel request into its per-shard graphs,
// LPT assignment, comm model, and bound predictor. Graphs and
// calibration are warm (metered by their own classes), so this is the
// plan-assembly overhead the compiled path amortizes away.
func BenchmarkCompilePlan(b *testing.B) {
	e := New(tinyOptions(7))
	spec, err := scenario.Build("dlrm-uniform-2gpu", 512, 0)
	if err != nil {
		b.Fatal(err)
	}
	req := Request{Device: hw.V100, Scenario: spec}
	if res := e.Predict(req); res.Err != nil { // warm calibration, graphs, overhead DBs
		b.Fatal(res.Err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.compile(req); err != nil {
			b.Fatal(err)
		}
	}
}
