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
	return opts
}

// TestCompiledPlanBitIdentical sweeps the whole scenario registry —
// single-device, 2- and 4-GPU hybrid-parallel, custom table
// populations, CNN data-parallel — with the result cache off, so every
// Predict compiles a fresh plan and executes it. Predicting each
// scenario twice on one engine and once on a second must give
// DeepEqual predictions, multi-GPU breakdowns and shard plans all three
// ways: recompiling is bit-identical and engine-independent.
func TestCompiledPlanBitIdentical(t *testing.T) {
	names := scenario.Names()
	if len(names) < 12 {
		t.Fatalf("registry too small for the sweep: %v", names)
	}
	opts := planOptions(7)
	opts.ResultCacheSize = -1
	a, b := New(opts), New(opts)

	for _, name := range names {
		spec, err := scenario.Build(name, 0, 0)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		req := Request{Device: hw.V100, Scenario: spec}
		want := a.Predict(req)
		if want.Err != nil {
			t.Fatalf("%s: %v", name, want.Err)
		}
		for _, again := range []struct {
			which string
			got   Result
		}{{"recompiled", a.Predict(req)}, {"second engine", b.Predict(req)}} {
			which, got := again.which, again.got
			if got.Err != nil {
				t.Fatalf("%s %s: %v", name, which, got.Err)
			}
			if got.CacheHit {
				t.Fatalf("%s %s: served from a disabled result cache", name, which)
			}
			if !reflect.DeepEqual(got.Prediction, want.Prediction) {
				t.Errorf("%s: %s prediction %+v != first %+v", name, which, got.Prediction, want.Prediction)
			}
			if !reflect.DeepEqual(got.Multi, want.Multi) {
				t.Errorf("%s: %s multi-GPU breakdown differs: %+v vs %+v", name, which, got.Multi, want.Multi)
			}
			if !reflect.DeepEqual(got.Plan, want.Plan) {
				t.Errorf("%s: %s shard plan differs: %+v vs %+v", name, which, got.Plan, want.Plan)
			}
		}
	}
}

// BenchmarkCompilePlan measures what every result-cache miss pays
// before the walk: resolving a 2-GPU hybrid-parallel request into its
// per-shard graphs, LPT assignment, comm model, and bound predictor.
// Graphs and calibration are warm (remembered by their own classes), so
// this is the plan assembly alone. The warm-up is at another batch, so
// each compile binds a view of the resident structure, and each plan
// releases it the way execute does.
func BenchmarkCompilePlan(b *testing.B) {
	e := New(tinyOptions(7))
	warm, err := scenario.Build("dlrm-uniform-2gpu", 512, 0)
	if err != nil {
		b.Fatal(err)
	}
	if res := e.Predict(Request{Device: hw.V100, Scenario: warm}); res.Err != nil { // warm calibration, graphs, overhead DBs
		b.Fatal(res.Err)
	}
	spec, err := scenario.Build("dlrm-uniform-2gpu", 1024, 0)
	if err != nil {
		b.Fatal(err)
	}
	req := Request{Device: hw.V100, Scenario: spec}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := e.compile(req)
		if err != nil {
			b.Fatal(err)
		}
		pl.release()
	}
}
