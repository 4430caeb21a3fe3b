package engine

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/microbench"
	"dlrmperf/internal/mlp"
	"dlrmperf/internal/models"
	"dlrmperf/internal/perfmodel"
	"dlrmperf/internal/scenario"
	"dlrmperf/internal/xsync"
)

// tinyOptions keeps engine tests fast: eighth-size sweeps, a single
// tiny network per family, two DLRM batch sizes, short measured runs.
func tinyOptions(seed uint64) Options {
	sizes := map[kernels.Kind]int{}
	for k, n := range microbench.DefaultSweepSizes() {
		sizes[k] = n / 8
	}
	return Options{
		Seed:        seed,
		Iters:       10,
		DLRMBatches: []int64{256, 512},
		Workers:     4,
		Calib: perfmodel.CalibOptions{
			SweepSizes: sizes, Ensemble: 1,
			MLPConfig: mlp.Config{HiddenLayers: 1, Width: 16, Optimizer: mlp.Adam, LR: 3e-3, Epochs: 10, BatchSize: 64},
		},
	}
}

// TestCalibrationSingleFlight is the cache contract: a burst of
// concurrent first uses of one device runs exactly one calibration and
// every caller shares it.
func TestCalibrationSingleFlight(t *testing.T) {
	e := New(tinyOptions(7))
	const n = 8
	cals := make([]*perfmodel.Calibration, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cals[i], errs[i] = e.Calibration(hw.V100)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if cals[i] != cals[0] {
			t.Fatal("concurrent callers got different calibrations")
		}
	}
	if got := e.CalibrationRuns(hw.V100); got != 1 {
		t.Fatalf("calibrations executed = %d, want 1", got)
	}
	// A later request is a pure cache hit.
	if _, err := e.Calibration(hw.V100); err != nil {
		t.Fatal(err)
	}
	if got := e.CalibrationRuns(hw.V100); got != 1 {
		t.Fatalf("cache hit re-calibrated: runs = %d", got)
	}
}

func testRequests() []Request {
	var reqs []Request
	for _, w := range []string{models.NameDLRMDefault, models.NameDLRMDDP} {
		for _, b := range []int64{256, 512} {
			reqs = append(reqs, NewRequest(hw.V100, w, b))
		}
	}
	shared := NewRequest(hw.V100, models.NameDLRMDefault, 512)
	shared.Shared = true
	reqs = append(reqs, shared)
	return reqs
}

// predictAll serves reqs with concurrent PredictCtx calls — as many in
// flight as the engine has workers, the way a serving pool drives it —
// and returns the results in request order.
func predictAll(e *Engine, reqs []Request) []Result {
	out := make([]Result, len(reqs))
	xsync.ForEachN(len(reqs), e.opts.Workers, func(i int) {
		out[i] = e.PredictCtx(context.Background(), reqs[i])
	})
	return out
}

// TestPredictBatchMatchesSequential: serving requests concurrently must
// not change a single bit of any prediction relative to serving them
// one at a time on a fresh engine.
func TestPredictBatchMatchesSequential(t *testing.T) {
	reqs := testRequests()

	batch := predictAll(New(tinyOptions(7)), reqs)
	seq := make([]Result, len(reqs))
	serial := New(tinyOptions(7))
	for i, r := range reqs {
		seq[i] = serial.Predict(r)
	}

	for i := range reqs {
		if batch[i].Err != nil || seq[i].Err != nil {
			t.Fatalf("request %v errored: batch=%v seq=%v", reqs[i], batch[i].Err, seq[i].Err)
		}
		if !reflect.DeepEqual(batch[i].Prediction, seq[i].Prediction) {
			t.Fatalf("request %v: batch prediction %+v != sequential %+v",
				reqs[i], batch[i].Prediction, seq[i].Prediction)
		}
	}
}

// TestPredictBatchDeterministicRepeat: repeated concurrent batches over
// a warm cache return identical results.
func TestPredictBatchDeterministicRepeat(t *testing.T) {
	e := New(tinyOptions(7))
	reqs := testRequests()
	a := predictAll(e, reqs)
	b := predictAll(e, reqs)
	for i := range reqs {
		if !reflect.DeepEqual(a[i].Prediction, b[i].Prediction) {
			t.Fatalf("request %v: repeat changed prediction", reqs[i])
		}
	}
	if got := e.CalibrationRuns(hw.V100); got != 1 {
		t.Fatalf("two batches ran %d calibrations, want 1", got)
	}
}

// TestWarmStartAssets: SaveAssets from one engine warm-starts another,
// which then predicts identically without ever calibrating.
func TestWarmStartAssets(t *testing.T) {
	a := New(tinyOptions(7))
	req := NewRequest(hw.V100, models.NameDLRMDefault, 512)
	ra := a.Predict(req)
	if ra.Err != nil {
		t.Fatal(ra.Err)
	}
	data, err := a.SaveAssets(hw.V100)
	if err != nil {
		t.Fatal(err)
	}

	b := New(tinyOptions(7))
	device, err := b.LoadAssets(data)
	if err != nil {
		t.Fatal(err)
	}
	if device != hw.V100 {
		t.Fatalf("assets device = %q", device)
	}
	rb := b.Predict(req)
	if rb.Err != nil {
		t.Fatal(rb.Err)
	}
	if !reflect.DeepEqual(ra.Prediction, rb.Prediction) {
		t.Fatalf("warm-started prediction differs: %+v vs %+v", ra.Prediction, rb.Prediction)
	}
	if got := b.CalibrationRuns(hw.V100); got != 0 {
		t.Fatalf("warm-started engine calibrated %d times, want 0", got)
	}
}

// TestPredictErrorsAreLocal: a bad request reports its error in its
// slot without failing the concurrent requests beside it.
func TestPredictErrorsAreLocal(t *testing.T) {
	e := New(tinyOptions(7))
	res := predictAll(e, []Request{
		NewRequest("H100", models.NameDLRMDefault, 256),
		NewRequest(hw.V100, "no_such_model", 256),
		NewRequest(hw.V100, models.NameDLRMDefault, 256),
	})
	if res[0].Err == nil {
		t.Error("unknown device did not error")
	}
	if res[1].Err == nil {
		t.Error("unknown workload did not error")
	}
	if res[2].Err != nil {
		t.Errorf("valid request failed: %v", res[2].Err)
	}
}

// TestResultCacheMissThenHit is the PR's cache contract: the first
// request computes (one miss), every repeat — sequential or concurrent
// — is served from memory with a bit-identical prediction.
func TestResultCacheMissThenHit(t *testing.T) {
	e := New(tinyOptions(7))
	req := NewRequest(hw.V100, models.NameDLRMDefault, 512)

	r1 := e.Predict(req)
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	if r1.CacheHit {
		t.Error("first request reported a cache hit")
	}
	if hits, misses := e.CacheStats(); hits != 0 || misses != 1 {
		t.Fatalf("after first request: hits=%d misses=%d, want 0/1", hits, misses)
	}

	r2 := e.Predict(req)
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if !r2.CacheHit {
		t.Error("repeat request missed the cache")
	}
	if hits, misses := e.CacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("after repeat: hits=%d misses=%d, want 1/1", hits, misses)
	}
	if !reflect.DeepEqual(r1.Prediction, r2.Prediction) {
		t.Fatalf("cached prediction differs: %+v vs %+v", r1.Prediction, r2.Prediction)
	}

	// Concurrent duplicates compute at most once; a distinct request
	// adds exactly one miss.
	other := NewRequest(hw.V100, models.NameDLRMDefault, 256)
	batch := predictAll(e, []Request{req, req, other, req})
	for i, r := range batch {
		if r.Err != nil {
			t.Fatalf("batch slot %d: %v", i, r.Err)
		}
	}
	for _, i := range []int{0, 1, 3} {
		if !reflect.DeepEqual(batch[i].Prediction, r1.Prediction) {
			t.Errorf("batch slot %d prediction differs from cached", i)
		}
	}
	if hits, misses := e.CacheStats(); hits != 4 || misses != 2 {
		t.Fatalf("after batch: hits=%d misses=%d, want 4/2", hits, misses)
	}
	if n := e.AssetStats().Class("results").Resident; n != 2 {
		t.Fatalf("resident cache entries = %d, want 2", n)
	}
}

// TestScenarioMultiGPU: a multi-device scenario routes through the
// sharding planner and hybrid-parallel predictor — the plan covers
// every table exactly once, the collectives are priced, and scaling
// efficiency stays in (0, 1).
func TestScenarioMultiGPU(t *testing.T) {
	e := New(tinyOptions(7))
	spec, err := scenario.Build("dlrm-uniform-2gpu", 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := e.Predict(Request{Device: hw.V100, Scenario: spec})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Multi == nil || res.Plan == nil {
		t.Fatalf("multi-GPU result missing breakdown: multi=%v plan=%v", res.Multi, res.Plan)
	}
	if res.Multi.Devices != 2 || len(res.Multi.PerDeviceE2E) != 2 {
		t.Errorf("device breakdown = %+v, want 2 devices", res.Multi)
	}
	if se := res.ScalingEfficiency(); se <= 0 || se >= 1 {
		t.Errorf("scaling efficiency = %v, want in (0,1)", se)
	}
	if res.Multi.AllReduceUs <= 0 || res.Multi.AllToAllUs <= 0 {
		t.Errorf("collectives not priced: %+v", res.Multi)
	}
	seen := map[int]int{}
	for _, dev := range res.Plan.Assignments {
		if len(dev) == 0 {
			t.Error("plan left a device empty")
		}
		for _, ti := range dev {
			seen[ti]++
		}
	}
	if len(seen) != 8 {
		t.Errorf("plan covers %d of 8 tables", len(seen))
	}
	for ti, n := range seen {
		if n != 1 {
			t.Errorf("table %d assigned %d times", ti, n)
		}
	}
	if res.Prediction.E2E <= res.Multi.PerDeviceE2E[0] {
		t.Errorf("E2E %v not above per-device compute %v", res.Prediction.E2E, res.Multi.PerDeviceE2E)
	}

	// A mixed single+multi batch serves through the same engine with one
	// calibration, and the repeated multi-GPU request hits the cache.
	mixed := predictAll(e, []Request{
		NewRequest(hw.V100, models.NameDLRMDefault, 512),
		{Device: hw.V100, Scenario: spec},
	})
	for i, r := range mixed {
		if r.Err != nil {
			t.Fatalf("mixed slot %d: %v", i, r.Err)
		}
	}
	if !mixed[1].CacheHit {
		t.Error("repeated multi-GPU scenario missed the cache")
	}
	if !reflect.DeepEqual(mixed[1].Prediction, res.Prediction) {
		t.Error("cached multi-GPU prediction differs")
	}
	if got := e.CalibrationRuns(hw.V100); got != 1 {
		t.Errorf("mixed batch ran %d calibrations, want 1", got)
	}
}
