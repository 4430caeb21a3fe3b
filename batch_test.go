package dlrmperf

import (
	"context"
	"errors"
	"testing"

	"dlrmperf/internal/xsync"
)

// fastEngineConfig keeps multi-device engine tests quick via the
// shared low-fidelity calibration preset.
func fastEngineConfig(devices ...string) EngineConfig {
	cfg := FastCalibConfig(17, 4)
	cfg.Devices = devices
	return cfg
}

// batchRequests builds the acceptance matrix: 3 workloads x 2 batch
// sizes x 2 devices = 12 requests.
func batchRequests() []PredictRequest {
	var reqs []PredictRequest
	for _, d := range []string{V100, P100} {
		for _, w := range []string{DLRMDefault, DLRMDDP, DLRMMLPerf} {
			for _, b := range []int64{512, 1024} {
				reqs = append(reqs, PredictRequest{Workload: w, Batch: b, Device: d})
			}
		}
	}
	return reqs
}

// predictAll serves reqs with concurrent PredictContext calls, four in
// flight (the way a serving pool drives the engine), and returns the
// results in request order.
func predictAll(eng *Engine, reqs []PredictRequest) []PredictResult {
	out := make([]PredictResult, len(reqs))
	xsync.ForEachN(len(reqs), 4, func(i int) {
		out[i] = eng.PredictContext(context.Background(), reqs[i])
	})
	return out
}

// TestPredictBatchAcceptance is the facade-level batch contract:
// concurrent predictions of >= 12 (workload x device) requests return
// exactly the same results as sequential Predict calls, with
// calibration performed at most once per device.
func TestPredictBatchAcceptance(t *testing.T) {
	reqs := batchRequests()
	if len(reqs) < 12 {
		t.Fatalf("acceptance matrix too small: %d requests", len(reqs))
	}

	eng, err := NewEngineWith(fastEngineConfig(V100, P100))
	if err != nil {
		t.Fatal(err)
	}
	batch := predictAll(eng, reqs)

	seq, err := NewEngineWith(fastEngineConfig(V100, P100))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		got := batch[i]
		if got.Err != nil {
			t.Fatalf("request %+v failed: %v", r, got.Err)
		}
		want := seq.Predict(r)
		if want.Err != nil {
			t.Fatalf("sequential %+v failed: %v", r, want.Err)
		}
		if got.Prediction != want.Prediction {
			t.Errorf("request %+v: batch %+v != sequential %+v", r, got.Prediction, want.Prediction)
		}
		if got.Prediction.E2EUs <= 0 || got.Prediction.ActiveUs <= 0 {
			t.Errorf("request %+v: implausible prediction %+v", r, got.Prediction)
		}
	}

	for _, d := range []string{V100, P100} {
		if runs := eng.CalibrationRuns(d); runs != 1 {
			t.Errorf("%s calibrated %d times under concurrent predictions, want 1", d, runs)
		}
	}
	// Larger batches on the same device and workload never predict
	// faster (equal is legitimate when the host critical path dominates,
	// as for DLRM_MLPerf at these sizes).
	for i := 0; i+1 < len(batch); i += 2 {
		if batch[i+1].Prediction.E2EUs < batch[i].Prediction.E2EUs {
			t.Errorf("%+v: 2x batch predicts faster (%v < %v)", batch[i+1].Request,
				batch[i+1].Prediction.E2EUs, batch[i].Prediction.E2EUs)
		}
	}
}

// TestScenarioRequestFacade: a named multi-GPU scenario serves through
// the facade with the sharding/scaling/cache surface filled in, and a
// repeat is a cache hit with an identical prediction.
func TestScenarioRequestFacade(t *testing.T) {
	eng, err := NewEngineWith(fastEngineConfig(V100))
	if err != nil {
		t.Fatal(err)
	}
	req := PredictRequest{Device: V100, Scenario: "dlrm-uniform-2gpu", Batch: 512}
	r1 := eng.Predict(req)
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	if r1.GPUs != 2 {
		t.Errorf("GPUs = %d, want 2", r1.GPUs)
	}
	if se := r1.ScalingEfficiency; se <= 0 || se >= 1 {
		t.Errorf("scaling efficiency = %v, want in (0,1)", se)
	}
	if r1.AllReduceUs <= 0 || r1.AllToAllUs <= 0 {
		t.Errorf("collectives not priced: %+v", r1)
	}
	if r1.CacheHit {
		t.Error("first request reported a cache hit")
	}

	r2 := eng.Predict(req)
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if !r2.CacheHit {
		t.Error("repeat request missed the cache")
	}
	if r1.Prediction != r2.Prediction || r1.ScalingEfficiency != r2.ScalingEfficiency {
		t.Errorf("cached result differs: %+v vs %+v", r1, r2)
	}
	if hits, misses := eng.CacheStats(); hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d/%d hit/miss, want 1/1", hits, misses)
	}

	// A single-GPU request of the same family shares assets but not the
	// cache entry.
	single := eng.Predict(PredictRequest{Workload: DLRMDefault, Batch: 512, Device: V100})
	if single.Err != nil {
		t.Fatal(single.Err)
	}
	if single.GPUs != 1 || single.ScalingEfficiency != 1 {
		t.Errorf("single-GPU surface = %+v", single)
	}
	if single.Prediction.E2EUs <= 0 {
		t.Errorf("implausible single-GPU E2E %v", single.Prediction.E2EUs)
	}
	if got := eng.CalibrationRuns(V100); got != 1 {
		t.Errorf("scenario mix calibrated %d times, want 1", got)
	}

	if r := eng.Predict(PredictRequest{Device: V100, Scenario: "no-such-scenario"}); r.Err == nil {
		t.Error("unknown scenario accepted")
	}

	// Validation failures are tallied as rejects, outside the hit/miss
	// counters — the unknown scenario above (facade resolution) and the
	// engine-side structural failure below both count.
	before, _ := eng.CacheStats()
	_, beforeMiss := eng.CacheStats()
	if r := eng.Predict(PredictRequest{Workload: DLRMDefault, Batch: 512, Device: V100, Comm: "pcie"}); r.Err == nil {
		t.Error("comm on a single-device request accepted")
	}
	if got := eng.RejectedRequests(); got != 2 {
		t.Errorf("RejectedRequests = %d, want 2 (unknown scenario + comm on width 1)", got)
	}
	if h, m := eng.CacheStats(); h != before || m != beforeMiss {
		t.Errorf("rejected request leaked into cache counters: %d/%d -> %d/%d", before, beforeMiss, h, m)
	}
}

// TestBoundedAssetStoreFacade is the bounded store at the facade: with
// a result cache smaller than the 12-request acceptance matrix's
// working set, the batch completes with bounded resident entries
// (evictions observed, residency at or under cap) and predictions
// bit-identical to a default engine, whose caps this working set never
// reaches.
func TestBoundedAssetStoreFacade(t *testing.T) {
	reqs := batchRequests()

	unbounded, err := NewEngineWith(fastEngineConfig(V100, P100))
	if err != nil {
		t.Fatal(err)
	}
	want := predictAll(unbounded, reqs)

	cfg := fastEngineConfig(V100, P100)
	cfg.ResultCacheSize = 4
	bounded, err := NewEngineWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := predictAll(bounded, reqs)

	for i := range reqs {
		if want[i].Err != nil || got[i].Err != nil {
			t.Fatalf("request %d errored: unbounded=%v bounded=%v", i, want[i].Err, got[i].Err)
		}
		if want[i].Prediction != got[i].Prediction {
			t.Errorf("request %+v: bounded %+v != unbounded %+v",
				reqs[i], got[i].Prediction, want[i].Prediction)
		}
	}

	s := bounded.AssetStats()
	var evictions uint64
	for _, name := range []string{"runs", "overheads", "graphs", "results"} {
		c := s.Class(name)
		if c.Capacity > 0 && c.Resident > c.Capacity {
			t.Errorf("%s resident %d above cap %d", name, c.Resident, c.Capacity)
		}
		evictions += c.Evictions
	}
	if evictions == 0 {
		t.Error("bounded engine saw no evictions under a 12-request working set")
	}
	if n := s.Class("results").Resident; n > 4 {
		t.Errorf("%d results resident above result cap 4", n)
	}
	if hits, misses := bounded.CacheStats(); hits+misses != uint64(len(reqs)) {
		t.Errorf("cache invariant broken: %d+%d != %d requests", hits, misses, len(reqs))
	}
	// Both devices still calibrated exactly once: the pinned class
	// shields calibrations from the thrash.
	for _, d := range []string{V100, P100} {
		if runs := bounded.CalibrationRuns(d); runs != 1 {
			t.Errorf("%s calibrated %d times under bounded store, want 1", d, runs)
		}
	}
}

// TestEngineDeviceSetEnforced: requests for devices outside the
// engine's set fail in their slot; the engine never calibrates them.
func TestEngineDeviceSetEnforced(t *testing.T) {
	eng, err := NewEngineWith(fastEngineConfig(V100))
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Predict(PredictRequest{Workload: DLRMDefault, Batch: 512, Device: P100})
	if res.Err == nil {
		t.Fatal("out-of-set device accepted")
	}
	if _, err := NewEngineWith(EngineConfig{Devices: []string{"A100"}}); err == nil {
		t.Fatal("unknown device accepted at construction")
	}
}

// TestEngineWarmStartFacade: assets exported from one engine eliminate
// calibration in another and preserve every prediction bit.
func TestEngineWarmStartFacade(t *testing.T) {
	a, err := NewEngineWith(fastEngineConfig(V100))
	if err != nil {
		t.Fatal(err)
	}
	req := PredictRequest{Workload: DLRMDefault, Batch: 1024, Device: V100}
	ra := a.Predict(req)
	if ra.Err != nil {
		t.Fatal(ra.Err)
	}
	assets, err := a.SaveAssets(V100)
	if err != nil {
		t.Fatal(err)
	}

	b, err := NewEngineWith(fastEngineConfig(V100))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LoadAssets(assets); err != nil {
		t.Fatal(err)
	}
	rb := b.Predict(req)
	if rb.Err != nil {
		t.Fatal(rb.Err)
	}
	if ra.Prediction != rb.Prediction {
		t.Fatalf("warm-started prediction differs: %+v vs %+v", ra.Prediction, rb.Prediction)
	}
	if runs := b.CalibrationRuns(V100); runs != 0 {
		t.Fatalf("warm-started engine calibrated %d times", runs)
	}
}

// TestEngineEagerCalibrate: Calibrate() front-loads every device once.
func TestEngineEagerCalibrate(t *testing.T) {
	eng, err := NewEngineWith(fastEngineConfig(V100, P100))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Calibrate(); err != nil {
		t.Fatal(err)
	}
	for _, d := range eng.Devices() {
		if runs := eng.CalibrationRuns(d); runs != 1 {
			t.Errorf("%s calibrated %d times, want 1", d, runs)
		}
	}
	// Predictions after the eager pass are pure cache hits.
	res := eng.Predict(PredictRequest{Workload: DLRMDefault, Batch: 512, Device: V100})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if runs := eng.CalibrationRuns(V100); runs != 1 {
		t.Errorf("prediction re-calibrated: runs = %d", runs)
	}
}

// TestPredictContextFacade: the context-accepting facade variants
// thread cancellation into the engine — an expired context fails fast
// with ctx.Err() before any calibration — and the StreamStats surface
// accounts for every request the engine served.
func TestPredictContextFacade(t *testing.T) {
	eng, err := NewEngineWith(fastEngineConfig(V100))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := eng.PredictContext(ctx, PredictRequest{Workload: DLRMDefault, Batch: 512, Device: V100})
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("expired context error = %v, want context.Canceled", res.Err)
	}
	if got := eng.CalibrationRuns(V100); got != 0 {
		t.Fatalf("expired request calibrated the device (%d runs)", got)
	}

	batch := predictAll(eng, []PredictRequest{
		{Workload: DLRMDefault, Batch: 512, Device: V100},
		{Workload: DLRMDefault, Batch: 512, Device: V100},
	})
	for i, r := range batch {
		if r.Err != nil {
			t.Fatalf("request %d failed: %v", i, r.Err)
		}
	}
	if !batch[1].CacheHit && !batch[0].CacheHit {
		t.Error("duplicate in batch missed the result cache")
	}

	ss := eng.StreamStats()
	hits, misses := eng.CacheStats()
	if hits+misses != ss.Served {
		t.Errorf("hits+misses = %d+%d, served = %d; invariant broken", hits, misses, ss.Served)
	}
	if ss.Canceled != 1 {
		t.Errorf("canceled = %d, want 1", ss.Canceled)
	}
	if ss.InFlight != 0 || ss.Served != 3 {
		t.Errorf("stream stats = %+v, want in-flight 0, served 3", ss)
	}
}

// TestRemoteResultNeverAliasesInvalidRequest is the coordinator-cache
// regression: a request whose resolved spec fails validation shares its
// fingerprint with a valid twin (single-device identity drops the comm
// field), so once the twin's row is resident the pass-through cache
// must neither serve it that row nor let it overwrite the row. It takes
// the unresolvable request's route instead — fetch runs uncached, so
// the worker owns the verdict — cold and warm alike.
func TestRemoteResultNeverAliasesInvalidRequest(t *testing.T) {
	eng, err := NewEngineWith(EngineConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	valid := PredictRequest{Workload: DLRMDefault, Batch: 512, Device: V100}
	fetches := 0
	fetch := func() (any, error) { fetches++; return "row", nil }
	for i := 0; i < 2; i++ {
		if v, hit, err := eng.RemoteResult(ctx, valid, fetch); err != nil || v != "row" || hit != (i == 1) {
			t.Fatalf("valid call %d = (%v, hit=%v, %v)", i, v, hit, err)
		}
	}
	hits, misses := eng.CacheStats()

	verdict := errors.New("worker: rejected")
	for _, comm := range []string{"pcie", "warp-drive"} { // comm on a single-device spec; unknown comm name
		invalid := valid
		invalid.Comm = comm
		ran := false
		v, hit, err := eng.RemoteResult(ctx, invalid, func() (any, error) { ran = true; return nil, verdict })
		if hit || !ran || !errors.Is(err, verdict) {
			t.Errorf("comm %q on a warm twin = (%v, hit=%v, ran=%v, %v), want the worker's verdict uncached", comm, v, hit, ran, err)
		}
		eng.InstallRemoteResult(invalid, "poison")
	}
	if v, hit, err := eng.RemoteResult(ctx, valid, fetch); err != nil || !hit || v != "row" {
		t.Errorf("valid twin after the invalid traffic = (%v, hit=%v, %v), want its own resident row", v, hit, err)
	}
	if fetches != 1 {
		t.Errorf("valid twin fetched %d times, want 1", fetches)
	}
	if h, m := eng.CacheStats(); h != hits+1 || m != misses {
		t.Errorf("cache counters moved by invalid traffic: %d/%d -> %d/%d", hits, misses, h, m)
	}
}
