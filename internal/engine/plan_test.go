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
// populations, CNN data-parallel — through predictScenario, the result
// class's builder, so every prediction compiles a fresh plan and
// executes it. Predicting each scenario twice on one engine and once on
// a second must give DeepEqual predictions, multi-GPU breakdowns and
// shard plans all three ways: recompiling is bit-identical and
// engine-independent.
func TestCompiledPlanBitIdentical(t *testing.T) {
	names := scenario.Names()
	if len(names) < 12 {
		t.Fatalf("registry too small for the sweep: %v", names)
	}
	opts := planOptions(7)
	a, b := New(opts), New(opts)
	compile := func(e *Engine, req Request) cached {
		t.Helper()
		v, err := e.predictScenario(&req)
		if err != nil {
			t.Fatalf("%s: %v", req.Scenario.Name, err)
		}
		return v.(cached)
	}

	for _, name := range names {
		spec, err := scenario.Build(name, 0, 0)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		req := Request{Device: hw.V100, Scenario: spec}
		want := compile(a, req)
		for _, again := range []struct {
			which string
			got   cached
		}{{"recompiled", compile(a, req)}, {"second engine", compile(b, req)}} {
			which, got := again.which, again.got
			if !reflect.DeepEqual(got.pred, want.pred) {
				t.Errorf("%s: %s prediction %+v != first %+v", name, which, got.pred, want.pred)
			}
			if !reflect.DeepEqual(got.multi, want.multi) {
				t.Errorf("%s: %s multi-GPU breakdown differs: %+v vs %+v", name, which, got.multi, want.multi)
			}
			if !reflect.DeepEqual(got.plan, want.plan) {
				t.Errorf("%s: %s shard plan differs: %+v vs %+v", name, which, got.plan, want.plan)
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
