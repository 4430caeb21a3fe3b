package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dlrmperf"
	"dlrmperf/internal/client"
	"dlrmperf/internal/serve"
)

// fakeWorker is a controllable in-process stand-in for one
// dlrmperf-serve worker: it answers the wire surface the coordinator
// drives (/v1/predict, /v1/predict/batch, /stats, /v1/drain) with
// engine-convention counters (hits + misses + rejected == requests),
// records which devices it "calibrated", and can be killed mid-stream
// (every subsequent response aborts the connection) for fault
// injection.
type fakeWorker struct {
	srv *httptest.Server
	id  string

	killed   atomic.Bool
	drained  atomic.Bool
	draining atomic.Bool // report batch rows with the drain sentinel, like a worker mid-shutdown

	statsCalls atomic.Uint64 // GET /stats requests answered

	mu         sync.Mutex
	received   uint64
	hits       uint64
	misses     uint64
	rejected   uint64
	calibrated map[string]int
	installed  map[string]bool
	seen       map[string]bool
	installs   uint64
}

func newFakeWorker(t *testing.T) *fakeWorker {
	t.Helper()
	fw := &fakeWorker{calibrated: map[string]int{}, installed: map[string]bool{}, seen: map[string]bool{}}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/assets/install", func(w http.ResponseWriter, r *http.Request) {
		fw.maybeDie()
		var blob struct {
			Device string `json:"device"`
		}
		if err := json.NewDecoder(r.Body).Decode(&blob); err != nil || blob.Device == "" {
			serve.WriteJSON(w, http.StatusBadRequest, serve.HTTPError{Code: "bad_assets", Message: "missing device"})
			return
		}
		fw.mu.Lock()
		fw.installed[blob.Device] = true
		fw.installs++
		fw.mu.Unlock()
		serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "installed"})
	})
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		fw.maybeDie()
		var req serve.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			serve.WriteJSON(w, http.StatusBadRequest, serve.HTTPError{Code: "bad_request", Message: err.Error()})
			return
		}
		serve.WriteJSON(w, http.StatusOK, fw.serveRow(req))
	})
	mux.HandleFunc("POST /v1/predict/batch", func(w http.ResponseWriter, r *http.Request) {
		fw.maybeDie()
		var reqs []serve.Request
		if err := json.NewDecoder(r.Body).Decode(&reqs); err != nil {
			serve.WriteJSON(w, http.StatusBadRequest, serve.HTTPError{Code: "bad_request", Message: err.Error()})
			return
		}
		rep := serve.Report{Requests: len(reqs)}
		for _, req := range reqs {
			if fw.draining.Load() {
				rep.Results = append(rep.Results, serve.Result{Request: req, Error: serve.ErrDraining.Error()})
				continue
			}
			rep.Results = append(rep.Results, fw.serveRow(req))
		}
		serve.WriteJSON(w, http.StatusOK, &rep)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		fw.maybeDie()
		fw.statsCalls.Add(1)
		serve.WriteJSON(w, http.StatusOK, fw.stats())
	})
	mux.HandleFunc("POST /v1/drain", func(w http.ResponseWriter, _ *http.Request) {
		fw.drained.Store(true)
		serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "draining"})
	})
	fw.srv = httptest.NewServer(mux)
	fw.id = fw.srv.URL
	t.Cleanup(fw.srv.Close)
	return fw
}

// maybeDie aborts the connection mid-response once the worker has been
// killed — the client sees a broken stream, exactly like a process
// that died with requests in flight.
func (fw *fakeWorker) maybeDie() {
	if fw.killed.Load() {
		panic(http.ErrAbortHandler)
	}
}

func (fw *fakeWorker) serveRow(req serve.Request) serve.Result {
	if req.Workload == "slow" {
		time.Sleep(300 * time.Millisecond) // a legitimate long computation
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.received++
	if req.Workload == "reject" {
		fw.rejected++
		return serve.Result{Request: req, Error: "fake: rejected"}
	}
	// A device whose assets were installed serves warm: its ledger
	// entry never appears — mirroring the real engine, where installed
	// calibration skips the calibration path entirely.
	if fw.calibrated[req.Device] == 0 && !fw.installed[req.Device] {
		fw.calibrated[req.Device] = 1
	}
	key := fmt.Sprintf("%s|%s|%s|%d|%d", req.Workload, req.Scenario, req.Device, req.Batch, req.GPUs)
	hit := fw.seen[key]
	fw.seen[key] = true
	if hit {
		fw.hits++
	} else {
		fw.misses++
	}
	return serve.Result{Request: req, E2EUs: 42, GPUsUsed: 1, CacheHit: hit}
}

func (fw *fakeWorker) stats() serve.Stats {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	cals := make(map[string]int, len(fw.calibrated))
	for d, n := range fw.calibrated {
		cals[d] = n
	}
	return serve.Stats{
		Requests:     fw.received,
		Served:       fw.hits + fw.misses,
		Rejected:     serve.RejectedStats{Validation: fw.rejected},
		Cache:        serve.CacheStats{Hits: fw.hits, Misses: fw.misses},
		Calibrations: cals,
	}
}

func (fw *fakeWorker) receivedCount() uint64 {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.received
}

func (fw *fakeWorker) installCount() uint64 {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.installs
}

func (fw *fakeWorker) hasInstalled(device string) bool {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.installed[device]
}

func (fw *fakeWorker) calibratedDevices() map[string]int {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	out := make(map[string]int, len(fw.calibrated))
	for d, n := range fw.calibrated {
		out[d] = n
	}
	return out
}

// passThrough is a ResultCache that caches nothing: every RemoteResult
// fetches and reports a miss, ResidentResult finds nothing, and
// InstallRemoteResult accepts a row and keeps none of it. Tests that
// need every repeat to route put it in front of their coordinator.
type passThrough struct{}

func (passThrough) RemoteResult(_ context.Context, _ dlrmperf.PredictRequest, fetch func() (any, error)) (any, bool, error) {
	v, err := fetch()
	return v, false, err
}

func (passThrough) ResidentResult(dlrmperf.PredictRequest) (any, bool) { return nil, false }

func (passThrough) InstallRemoteResult(dlrmperf.PredictRequest, any) bool { return true }

// newTestCluster wires n fake workers behind a coordinator as static
// registry entries (a passThrough cache unless one is provided).
func newTestCluster(t *testing.T, n int, cache ResultCache) (*Coordinator, []*fakeWorker) {
	t.Helper()
	if cache == nil {
		cache = passThrough{}
	}
	reg := NewRegistry(0)
	workers := make([]*fakeWorker, n)
	for i := range workers {
		workers[i] = newFakeWorker(t)
		reg.AddStatic(workers[i].srv.URL)
	}
	return New(Config{Registry: reg, Cache: cache}), workers
}

func req(device, workload string, batch int64) serve.Request {
	return serve.Request{Workload: workload, Device: device, Batch: batch}
}

// assertAggInvariant asserts the cluster-wide accounting identity on
// an aggregated snapshot.
func assertAggInvariant(t *testing.T, st Stats) {
	t.Helper()
	if got := st.Accounted(); got != st.Requests {
		t.Errorf("cluster invariant broken: hits %d + misses %d + rejected %d = %d, requests %d",
			st.Cache.Hits, st.Cache.Misses, st.Rejected.Total(), got, st.Requests)
	}
}

// TestDeviceAffineRouting pins the tentpole routing property: every
// device is served — and therefore "calibrated" — on exactly one
// worker, the one rendezvous hashing ranks first, across many devices
// and repeated requests.
func TestDeviceAffineRouting(t *testing.T) {
	coord, workers := newTestCluster(t, 3, nil)
	byID := map[string]*fakeWorker{}
	for _, fw := range workers {
		byID[fw.id] = fw
	}
	live := coord.reg.Live()

	const devices = 24
	for d := 0; d < devices; d++ {
		dev := fmt.Sprintf("dev-%d", d)
		for rep := 0; rep < 3; rep++ {
			row, err := coord.PredictOne(context.Background(), req(dev, "w", 512), rep%2 == 0)
			if err != nil || row.Error != "" {
				t.Fatalf("dev %s rep %d: %v / %q", dev, rep, err, row.Error)
			}
		}
	}
	for d := 0; d < devices; d++ {
		dev := fmt.Sprintf("dev-%d", d)
		want := Rank(live, dev)[0].ID
		owners := 0
		for id, fw := range byID {
			fw.mu.Lock()
			_, has := fw.calibrated[dev]
			fw.mu.Unlock()
			if has {
				owners++
				if id != want {
					t.Errorf("device %s served on %s, rendezvous ranks %s first", dev, id, want)
				}
			}
		}
		if owners != 1 {
			t.Errorf("device %s calibrated on %d workers, want exactly 1", dev, owners)
		}
	}

	st := coord.Stats(context.Background())
	assertAggInvariant(t, st)
	if st.Requests != devices*3 {
		t.Fatalf("aggregated requests = %d, want %d", st.Requests, devices*3)
	}
	// Affinity also means repeats are worker-side cache hits: 2 of the
	// 3 requests per device.
	if st.Cache.Hits != devices*2 || st.Cache.Misses != devices {
		t.Fatalf("aggregated cache = %d/%d hit/miss, want %d/%d", st.Cache.Hits, st.Cache.Misses, devices*2, devices)
	}
	// The calibration ledger shows each device under exactly one worker.
	seen := map[string]int{}
	for _, devs := range st.Calibrations {
		for d := range devs {
			seen[d]++
		}
	}
	for d := 0; d < devices; d++ {
		if n := seen[fmt.Sprintf("dev-%d", d)]; n != 1 {
			t.Errorf("ledger shows dev-%d on %d workers, want 1", d, n)
		}
	}
}

// TestCoordinatorLocalCacheHit: with the pass-through cache installed,
// an identical repeat is answered at the coordinator — the worker sees
// the scenario exactly once — and the local hit is accounted in both
// sides of the aggregated invariant.
func TestCoordinatorLocalCacheHit(t *testing.T) {
	eng, err := dlrmperf.NewEngineWith(dlrmperf.EngineConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	coord, workers := newTestCluster(t, 2, eng)

	r := req("V100", "DLRM_default", 512)
	first, err := coord.PredictOne(context.Background(), r, false)
	if err != nil || first.Error != "" || first.CacheHit {
		t.Fatalf("first = %+v, %v; want a routed miss", first, err)
	}
	second, err := coord.PredictOne(context.Background(), r, false)
	if err != nil || second.Error != "" {
		t.Fatalf("second = %+v, %v", second, err)
	}
	if !second.CacheHit {
		t.Fatalf("repeat not served from the coordinator cache: %+v", second)
	}
	if total := workers[0].receivedCount() + workers[1].receivedCount(); total != 1 {
		t.Fatalf("workers saw %d requests, want 1 (repeat answered locally)", total)
	}
	st := coord.Stats(context.Background())
	if st.Coordinator.LocalCacheHits != 1 || st.Coordinator.Received != 2 {
		t.Fatalf("coordinator stats = %+v, want 1 local hit of 2 received", st.Coordinator)
	}
	assertAggInvariant(t, st)
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("aggregated cache = %d/%d, want 1/1", st.Cache.Hits, st.Cache.Misses)
	}
}

// TestAggregatedStatsMergesWorkers: worker-side validation rejects and
// cache verdicts merge into one document that preserves the invariant,
// and worker asset/stream counters are summed.
func TestAggregatedStatsMergesWorkers(t *testing.T) {
	coord, _ := newTestCluster(t, 2, nil)
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		coord.PredictOne(ctx, req(fmt.Sprintf("dev-%d", i%3), "w", 512), false)
	}
	if row, err := coord.PredictOne(ctx, req("dev-0", "reject", 512), false); err != nil || row.Error == "" {
		t.Fatalf("rejected row = %+v, %v; want an error row", row, err)
	}
	st := coord.Stats(ctx)
	assertAggInvariant(t, st)
	if st.Rejected.Validation != 1 {
		t.Fatalf("validation rejects = %d, want 1", st.Rejected.Validation)
	}
	if st.Requests != 7 {
		t.Fatalf("requests = %d, want 7", st.Requests)
	}
	if st.Served != 6 {
		t.Fatalf("served = %d, want 6", st.Served)
	}
	if len(st.Workers) != 2 {
		t.Fatalf("workers = %d, want 2", len(st.Workers))
	}
	for _, w := range st.Workers {
		if !w.Live || w.Stats == nil {
			t.Fatalf("worker %s not live with stats: %+v", w.ID, w)
		}
	}
}

// TestDrainPropagation: draining rejects new admissions with 503,
// flips healthz, and pushes the drain to registered (but not static)
// workers.
func TestDrainPropagation(t *testing.T) {
	reg := NewRegistry(0)
	staticW := newFakeWorker(t)
	regW := newFakeWorker(t)
	reg.AddStatic(staticW.srv.URL)
	reg.Register(regW.id, regW.srv.URL)
	coord := New(Config{Registry: reg, Cache: passThrough{}})

	coord.Drain(true)
	if !regW.drained.Load() {
		t.Fatal("registered worker did not receive the propagated drain")
	}
	if staticW.drained.Load() {
		t.Fatal("static worker must not be drained by the coordinator")
	}
	if _, err := coord.PredictOne(context.Background(), req("V100", "w", 512), false); !errors.Is(err, ErrDraining) {
		t.Fatalf("admission while draining: err = %v, want ErrDraining", err)
	}

	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	if h, err := cl.Healthz(context.Background()); err != nil || h.Status != "draining" {
		t.Fatalf("healthz while draining = %+v / %v, want status draining", h, err)
	}
	var dr *serve.StatusError
	if _, err := cl.Predict(context.Background(), req("V100", "w", 512)); !errors.As(err, &dr) ||
		dr.Status != http.StatusServiceUnavailable || dr.Code != "draining" || dr.RetryAfter <= 0 {
		t.Fatalf("predict while draining: err = %v, want 503 draining with a Retry-After hint", err)
	}
	st := coord.Stats(context.Background())
	if st.Rejected.Draining != 2 {
		t.Fatalf("draining rejects = %d, want 2", st.Rejected.Draining)
	}
	assertAggInvariant(t, st)
}

// TestBackpressurePassThrough: a worker 429 is not a failure — it
// reaches the client as 429 with the worker's own Retry-After hint,
// the worker is not marked failed, and nothing lands in worker_failed.
func TestBackpressurePassThrough(t *testing.T) {
	reg := NewRegistry(0)
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "7")
		serve.WriteJSON(w, http.StatusTooManyRequests, serve.HTTPError{Code: "queue_full", Message: "busy"})
	}))
	defer busy.Close()
	reg.AddStatic(busy.URL)
	coord := New(Config{Registry: reg, Cache: passThrough{}})

	_, err := coord.PredictOne(context.Background(), req("V100", "w", 512), false)
	var bp *serve.StatusError
	if !errors.As(err, &bp) || bp.Status != http.StatusTooManyRequests || bp.Code != "queue_full" || bp.RetryAfter != 7*time.Second {
		t.Fatalf("err = %v, want the worker's 429 queue_full with its 7s hint", err)
	}
	if len(reg.Live()) != 1 {
		t.Fatal("backpressure must not mark the worker failed")
	}

	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	var tbp *serve.StatusError
	if _, err := client.New(ts.URL).Predict(context.Background(), req("V100", "w", 512)); !errors.As(err, &tbp) ||
		tbp.Status != http.StatusTooManyRequests || tbp.Code != "queue_full" || tbp.Message != "busy" || tbp.RetryAfter != 7*time.Second {
		t.Fatalf("predict over HTTP: err = %v, want the worker's 429 queue_full \"busy\" carrying its 7s hint", err)
	}
	st := coord.Stats(context.Background())
	if st.Rejected.WorkerFailed != 0 {
		t.Fatalf("worker_failed = %d, want 0 for backpressure", st.Rejected.WorkerFailed)
	}
}

// TestBatchFanOut: the coordinator batch endpoint splits rows across
// workers by device, preserves request order, and the aggregated
// GET /stats accounts for every row.
func TestBatchFanOut(t *testing.T) {
	coord, workers := newTestCluster(t, 2, nil)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)

	var reqs []serve.Request
	for i := 0; i < 8; i++ {
		reqs = append(reqs, req(fmt.Sprintf("dev-%d", i%4), "w", int64(512+i)))
	}
	var rep Report
	if err := cl.PredictBatchInto(context.Background(), reqs, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 8 || rep.Failed != 0 {
		t.Fatalf("batch report = %d/%d, want 8 requests, 0 failed", rep.Requests, rep.Failed)
	}
	for i, row := range rep.Results {
		if row.Device != reqs[i].Device || row.Batch != reqs[i].Batch {
			t.Fatalf("row %d out of order: %+v", i, row)
		}
	}
	// Both workers participated (4 distinct devices split 2 ways is
	// overwhelmingly likely to touch both; assert at least the total).
	if total := workers[0].receivedCount() + workers[1].receivedCount(); total != 8 {
		t.Fatalf("workers saw %d rows, want 8", total)
	}
	var st Stats
	if err := cl.StatsInto(context.Background(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Accounted() != 8 || st.Requests != 8 {
		t.Fatalf("aggregated accounting = %d of %d requests, want 8 of 8", st.Accounted(), st.Requests)
	}
}

// TestBatchCallFetchesNoStats: a coordinator batch call asks its
// workers for rows and nothing else — not when its rows are forwarded,
// not when they are all resident — so no batch call costs a GET /stats
// per live worker.
func TestBatchCallFetchesNoStats(t *testing.T) {
	eng, err := dlrmperf.NewEngineWith(dlrmperf.EngineConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	coord, workers := newTestCluster(t, 2, eng)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)

	reqs := []serve.Request{
		req("V100", "DLRM_default", 512), req("P100", "DLRM_default", 512),
		req("V100", "DLRM_DDP", 1024), req("P100", "DLRM_DDP", 1024),
	}
	for _, call := range []string{"forwarded", "resident"} {
		var rep Report
		if err := cl.PredictBatchInto(context.Background(), reqs, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Requests != len(reqs) || rep.Failed != 0 {
			t.Fatalf("%s call: report %d/%d, want %d requests, 0 failed", call, rep.Requests, rep.Failed, len(reqs))
		}
		for i, row := range rep.Results {
			if row.CacheHit != (call == "resident") {
				t.Fatalf("%s call: row %d cache_hit = %v", call, i, row.CacheHit)
			}
		}
		for _, fw := range workers {
			if n := fw.statsCalls.Load(); n != 0 {
				t.Fatalf("%s call: worker %s answered %d GET /stats, want 0", call, fw.id, n)
			}
		}
	}
	if total := workers[0].receivedCount() + workers[1].receivedCount(); total != uint64(len(reqs)) {
		t.Fatalf("workers saw %d rows, want %d (the repeat is resident)", total, len(reqs))
	}
}

// TestBatchBodyKeys: the coordinator's POST /v1/predict/batch body is
// the worker's report shape — results, requests, failed, elapsed_ms —
// plus error only when every row failed.
func TestBatchBodyKeys(t *testing.T) {
	coord, _ := newTestCluster(t, 2, nil)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	assertBatchKeys(t, cl, []serve.Request{req("dev-0", "w", 512), req("dev-1", "reject", 512)}, false)
	assertBatchKeys(t, cl, []serve.Request{req("dev-0", "reject", 512), req("dev-1", "reject", 512)}, true)
}

// TestBatchTooLarge: a batch of serve.MaxBatch+1 rows is refused at the
// coordinator's boundary with 400 batch_too_large, before any counter —
// the coordinator's or a worker's — moves.
func TestBatchTooLarge(t *testing.T) {
	coord, workers := newTestCluster(t, 2, nil)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	reqs := make([]serve.Request, serve.MaxBatch+1)
	for i := range reqs {
		reqs[i] = req("V100", "w", 512)
	}
	var apiErr *serve.StatusError
	if err := client.New(ts.URL).PredictBatchInto(context.Background(), reqs, &Report{}); !errors.As(err, &apiErr) ||
		apiErr.Status != http.StatusBadRequest || apiErr.Code != "batch_too_large" {
		t.Fatalf("%d-row batch: err = %v, want 400 batch_too_large", len(reqs), err)
	}
	st := coord.Stats(context.Background())
	if st.Coordinator.Received != 0 || st.Requests != 0 || st.Accounted() != 0 {
		t.Fatalf("refused batch moved counters: coordinator %+v, cluster %d requests / %d accounted",
			st.Coordinator, st.Requests, st.Accounted())
	}
	for _, fw := range workers {
		if n := fw.receivedCount(); n != 0 {
			t.Fatalf("worker %s received %d rows of a refused batch", fw.id, n)
		}
	}
}

// assertBatchKeys posts one batch and checks the top-level keys of the
// response body.
func assertBatchKeys(t *testing.T, cl *client.Client, reqs []serve.Request, allFailed bool) {
	t.Helper()
	var body map[string]json.RawMessage
	if err := cl.PredictBatchInto(context.Background(), reqs, &body); err != nil {
		t.Fatal(err)
	}
	want := []string{"elapsed_ms", "failed", "requests", "results"}
	if allFailed {
		want = append(want, "error")
	}
	var got []string
	for k := range body {
		got = append(got, k)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("batch body keys %v, want %v", got, want)
	}
}

// TestNewRequiresRegistryAndCache: a coordinator has no cacheless mode;
// New refuses a config missing either the worker set or the cache.
func TestNewRequiresRegistryAndCache(t *testing.T) {
	for name, cfg := range map[string]Config{
		"no registry": {Cache: passThrough{}},
		"no cache":    {Registry: NewRegistry(0)},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%s) did not panic", name)
				}
			}()
			New(cfg)
		})
	}
}
