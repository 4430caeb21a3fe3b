package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dlrmperf"
	"dlrmperf/internal/serve"
)

// memoBackend is instantBackend with a memory, the part of a worker
// engine the batch path leans on: an identity computes once (a miss),
// every later row of it is a hit. With gate set, every prediction first
// waits for the gate or its own context.
type memoBackend struct {
	instantBackend
	hits atomic.Uint64
	gate chan struct{}

	mu   sync.Mutex
	seen map[string]bool
}

func (b *memoBackend) PredictContext(ctx context.Context, req dlrmperf.PredictRequest) dlrmperf.PredictResult {
	if b.gate != nil {
		select {
		case <-b.gate:
		case <-ctx.Done():
			b.misses.Add(1) // the engine's convention: an abandoned request is a miss
			return dlrmperf.PredictResult{Request: req, Err: ctx.Err()}
		}
	}
	ereq, err := req.Resolve()
	if err != nil {
		b.rejected.Add(1)
		return dlrmperf.PredictResult{Request: req, Err: err}
	}
	b.mu.Lock()
	hit := b.seen[ereq.Key()]
	b.seen[ereq.Key()] = true
	b.mu.Unlock()
	if hit {
		b.hits.Add(1)
	} else {
		b.misses.Add(1)
	}
	return dlrmperf.PredictResult{Request: req, GPUs: 1, CacheHit: hit,
		Prediction: dlrmperf.Prediction{E2EUs: float64(req.Batch)}}
}

func (b *memoBackend) CacheStats() (hits, misses uint64) { return b.hits.Load(), b.misses.Load() }

// batchWorker is a real serve.New worker behind a handler that counts
// the predict POSTs reaching it.
type batchWorker struct {
	id    string
	be    *memoBackend
	srv   *serve.Server
	ts    *httptest.Server
	posts atomic.Int64
}

func (w *batchWorker) rows() uint64 { return w.srv.Stats().Requests }

// batchCluster is a real coordinator in front of two batchWorkers;
// devs[i] is a device whose rendezvous owner is workers[i].
type batchCluster struct {
	coord   *Coordinator
	workers [2]*batchWorker
	devs    [2]string
}

func newBatchCluster(t *testing.T, cached, gated bool) *batchCluster {
	t.Helper()
	bc := &batchCluster{}
	reg := NewRegistry(0)
	for i := range bc.workers {
		w := &batchWorker{be: &memoBackend{seen: map[string]bool{}}}
		if gated {
			w.be.gate = make(chan struct{})
		}
		w.srv = serve.New(serve.Config{Backend: w.be})
		h := w.srv.Handler()
		w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/predict") {
				w.posts.Add(1)
			}
			h.ServeHTTP(rw, r)
		}))
		t.Cleanup(func() { w.ts.Close(); w.srv.Drain() })
		w.id = w.ts.URL
		reg.Register(w.id, w.ts.URL)
		bc.workers[i] = w
	}
	for i, w := range bc.workers {
		bc.devs[i] = affineDevice(t, reg.Live(), w.id)
	}
	cfg := Config{Registry: reg, Cache: passThrough{}}
	if cached {
		cache, err := dlrmperf.NewEngineWith(dlrmperf.EngineConfig{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = cache
	}
	bc.coord = New(cfg)
	return bc
}

func (bc *batchCluster) posts() int64 { return bc.workers[0].posts.Load() + bc.workers[1].posts.Load() }

// mixed builds n rows over both owners: n/2 identities, each asked
// twice under a different envelope.
func (bc *batchCluster) mixed(n int) []serve.Request {
	reqs := make([]serve.Request, n)
	for i := range reqs {
		reqs[i] = serve.Request{Workload: "DLRM_default", Batch: int64(512 + i/2), Device: bc.devs[i/2%2]}
		if i%2 == 1 {
			reqs[i].Tenant, reqs[i].Priority = "t1", "high"
		}
	}
	return reqs
}

// answered asserts one served row per request, in request order, each
// under its own envelope.
func answered(t *testing.T, reqs []serve.Request, rows []serve.Result) {
	t.Helper()
	if len(rows) != len(reqs) {
		t.Fatalf("%d rows for %d requests", len(rows), len(reqs))
	}
	for i, row := range rows {
		if row.Request != reqs[i] {
			t.Fatalf("row %d carries %+v, want its own request %+v", i, row.Request, reqs[i])
		}
		if row.Error != "" || row.E2EUs != float64(reqs[i].Batch) {
			t.Fatalf("row %d = %+v, want the prediction for batch %d", i, row, reqs[i].Batch)
		}
	}
}

// TestRunBatchGroupsByOwner pins the batch path: a call is planned
// once, resident rows are answered at the coordinator, the rest travel
// as ONE POST per rendezvous owner, and everything per row — envelope,
// validation verdicts, failover, accounting — is as it was when every
// row travelled alone.
func TestRunBatchGroupsByOwner(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name          string
		cached, gated bool
		run           func(t *testing.T, bc *batchCluster)
	}{
		{"cold call is one POST per owner, warm call none", true, false, func(t *testing.T, bc *batchCluster) {
			reqs := bc.mixed(64)
			answered(t, reqs, bc.coord.RunBatch(ctx, reqs))
			if got := bc.posts(); got != 2 {
				t.Fatalf("cold call made %d worker POSTs, want 2 (one per owner)", got)
			}
			if a, b := bc.workers[0].rows(), bc.workers[1].rows(); a != 32 || b != 32 {
				t.Fatalf("workers saw %d/%d rows, want 32/32", a, b)
			}
			before := bc.coord.Stats(ctx)
			rows := bc.coord.RunBatch(ctx, reqs)
			answered(t, reqs, rows)
			for i, row := range rows {
				if !row.CacheHit {
					t.Fatalf("warm row %d not a cache hit: %+v", i, row)
				}
			}
			after := bc.coord.Stats(ctx)
			if got := bc.posts(); got != 2 {
				t.Fatalf("warm call made %d more worker POSTs, want 0", got-2)
			}
			if d := after.Coordinator.LocalCacheHits - before.Coordinator.LocalCacheHits; d != 64 {
				t.Fatalf("local_cache_hits moved by %d, want 64", d)
			}
			if after.Coordinator.Received != 128 {
				t.Fatalf("received = %d, want 128 (every row of both calls)", after.Coordinator.Received)
			}
			var routed uint64
			for _, ws := range after.Workers {
				routed += ws.Routed
			}
			if routed != 32 {
				t.Fatalf("routed = %d, want 32: row attempts that executed a fetch, not POSTs", routed)
			}
			assertAggInvariant(t, after)
		}},
		{"duplicates compute once per worker", true, false, func(t *testing.T, bc *batchCluster) {
			reqs := make([]serve.Request, 16)
			for i := range reqs {
				reqs[i] = serve.Request{Workload: "DLRM_default", Batch: 512, Device: bc.devs[i%2], Tenant: string(rune('a' + i))}
			}
			answered(t, reqs, bc.coord.RunBatch(ctx, reqs))
			for i, w := range bc.workers {
				if _, misses := w.be.CacheStats(); misses != 1 {
					t.Fatalf("worker %d computed %d times, want 1", i, misses)
				}
			}
			st := bc.coord.Stats(ctx)
			if st.Coordinator.Received != 16 {
				t.Fatalf("received = %d, want 16", st.Coordinator.Received)
			}
			assertAggInvariant(t, st)
		}},
		{"invalid twin keeps its verdict, cold and warm", true, false, func(t *testing.T, bc *batchCluster) {
			valid := serve.Request{Workload: "DLRM_default", Batch: 512, Device: bc.devs[0]}
			invalid := valid
			invalid.Comm = "pcie" // comm on a single-device request: same fingerprint, does not validate
			var verdicts []string
			for pass, warm := range []bool{false, true} {
				before := bc.coord.Stats(ctx)
				rows := bc.coord.RunBatch(ctx, []serve.Request{valid, invalid})
				if rows[0].Error != "" || rows[0].CacheHit != warm || rows[0].E2EUs != 512 {
					t.Fatalf("pass %d: valid twin = %+v", pass, rows[0])
				}
				if rows[1].Error == "" || rows[1].CacheHit || rows[1].Request != invalid {
					t.Fatalf("pass %d: invalid twin = %+v, want the worker's validation row", pass, rows[1])
				}
				verdicts = append(verdicts, rows[1].Error)
				after := bc.coord.Stats(ctx)
				if after.Rejected.Validation != before.Rejected.Validation+1 {
					t.Fatalf("pass %d: worker rejected.validation %d -> %d, want +1", pass, before.Rejected.Validation, after.Rejected.Validation)
				}
				assertAggInvariant(t, after)
			}
			if verdicts[0] != verdicts[1] {
				t.Fatalf("verdict changed with cache temperature: %q then %q", verdicts[0], verdicts[1])
			}
			if got := bc.posts(); got != 2 {
				t.Fatalf("%d worker POSTs, want 2 (one per pass)", got)
			}
		}},
		{"killed owner: each of its rows fails over", true, false, func(t *testing.T, bc *batchCluster) {
			victim, survivor := bc.workers[0], bc.workers[1]
			victim.ts.CloseClientConnections()
			victim.ts.Close()
			reqs := bc.mixed(64)
			answered(t, reqs, bc.coord.RunBatch(ctx, reqs))
			st := bc.coord.Stats(ctx)
			// Each identity is asked twice: one copy executes the fetch (and
			// the failed attempt), its twin joins it or finds it resident.
			if st.Rejected.WorkerFailed != 16 {
				t.Fatalf("worker_failed = %d, want 16 (once per row that routed to the dead owner)", st.Rejected.WorkerFailed)
			}
			if survivor.rows() != 32+16 {
				t.Fatalf("survivor saw %d rows, want 48 (its own 32 + 16 retried alone)", survivor.rows())
			}
			if live := bc.coord.reg.Live(); len(live) != 1 || live[0].ID != survivor.id {
				t.Fatalf("live = %+v, want only the survivor", live)
			}
			assertAggInvariant(t, st)
		}},
		{"draining owner: only its rows fail over", false, false, func(t *testing.T, bc *batchCluster) {
			bc.workers[0].srv.Drain()
			reqs := bc.mixed(64)
			answered(t, reqs, bc.coord.RunBatch(ctx, reqs))
			st := bc.coord.Stats(ctx)
			if st.Rejected.WorkerFailed != 32 {
				t.Fatalf("worker_failed = %d, want 32 (the draining owner's rows, nobody else's)", st.Rejected.WorkerFailed)
			}
			if got := bc.workers[1].rows(); got != 64 {
				t.Fatalf("survivor saw %d rows, want 64", got)
			}
			assertAggInvariant(t, st)
		}},
		{"canceled caller quarantines nobody", true, true, func(t *testing.T, bc *batchCluster) {
			cctx, cancel := context.WithCancel(ctx)
			reqs := bc.mixed(64)
			done := make(chan []serve.Result)
			go func() { done <- bc.coord.RunBatch(cctx, reqs) }()
			waitUntil(t, "both sub-batches to reach their workers", func() bool {
				return bc.workers[0].rows() > 0 && bc.workers[1].rows() > 0
			})
			cancel()
			for i, row := range <-done {
				if !strings.Contains(row.Error, context.Canceled.Error()) {
					t.Fatalf("row %d = %+v, want the caller's context error", i, row)
				}
			}
			if live := bc.coord.reg.Live(); len(live) != 2 {
				t.Fatalf("live after a canceled call = %d workers, want 2", len(live))
			}
			if st := bc.coord.Stats(ctx); st.Rejected.WorkerFailed != 0 {
				t.Fatalf("worker_failed = %d, want 0: the caller went away, not a worker", st.Rejected.WorkerFailed)
			}
		}},
		{"without a cache every row is forwarded, grouped", false, false, func(t *testing.T, bc *batchCluster) {
			reqs := bc.mixed(64)
			for call := 1; call <= 2; call++ {
				answered(t, reqs, bc.coord.RunBatch(ctx, reqs))
				if got := bc.posts(); got != int64(2*call) {
					t.Fatalf("after call %d: %d worker POSTs, want %d", call, got, 2*call)
				}
			}
			if a, b := bc.workers[0].rows(), bc.workers[1].rows(); a != 64 || b != 64 {
				t.Fatalf("workers saw %d/%d rows, want 64/64", a, b)
			}
			st := bc.coord.Stats(ctx)
			if st.Coordinator.LocalCacheHits != 0 {
				t.Fatalf("local_cache_hits = %d without a cache", st.Coordinator.LocalCacheHits)
			}
			assertAggInvariant(t, st)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newBatchCluster(t, tc.cached, tc.gated)) })
	}
}

// TestRunBatchNoWorkers: with nothing to plan for, each row reports the
// empty cluster itself and is counted once.
func TestRunBatchNoWorkers(t *testing.T) {
	coord := New(Config{Registry: NewRegistry(0), Cache: passThrough{}})
	rows := coord.RunBatch(context.Background(), []serve.Request{req("V100", "w", 512), req("P100", "w", 512)})
	for i, row := range rows {
		if row.Error != ErrNoWorkers.Error() {
			t.Fatalf("row %d = %+v, want %v", i, row, ErrNoWorkers)
		}
	}
	st := coord.Stats(context.Background())
	if st.Rejected.NoWorkers != 2 {
		t.Fatalf("no_workers = %d, want 2", st.Rejected.NoWorkers)
	}
	assertAggInvariant(t, st)
}

// TestBodyIsExactlyOneJSONValue: a predict or batch body is one JSON
// value. Bytes after it used to be ignored (the decoder stopped at the
// first value, so `{...}{...} garbage` was served as its first object);
// now they are 400 bad_request on the worker and the coordinator alike,
// before any request counter moves. Whitespace after the value is not
// "bytes after it".
func TestBodyIsExactlyOneJSONValue(t *testing.T) {
	bc := newBatchCluster(t, true, false)
	front := httptest.NewServer(bc.coord.Handler())
	t.Cleanup(front.Close)

	row := `{"device":"` + bc.devs[0] + `","workload":"DLRM_default","batch":512}`
	handlers := []struct {
		name, url string
		batch     bool
	}{
		{"worker predict", bc.workers[0].ts.URL + "/v1/predict", false},
		{"worker batch", bc.workers[0].ts.URL + "/v1/predict/batch", true},
		{"coordinator predict", front.URL + "/v1/predict", false},
		{"coordinator batch", front.URL + "/v1/predict/batch", true},
	}
	tails := []struct {
		tail string
		ok   bool
	}{
		{"", true},
		{" \r\n\t", true},
		{`{"device":"P100"} garbage`, false},
		{" x", false},
		{"]", false},
		{",", false},
		{"null", false},
		{"\x00", false},
	}
	for _, h := range handlers {
		for _, tc := range tails {
			body := row
			if h.batch {
				body = "[" + row + "]"
			}
			resp, err := http.Post(h.url, "application/json", strings.NewReader(body+tc.tail))
			if err != nil {
				t.Fatal(err)
			}
			var he serve.HTTPError
			decodeErr := json.NewDecoder(resp.Body).Decode(&he)
			resp.Body.Close()
			if tc.ok {
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s, tail %q: status %d, want 200", h.name, tc.tail, resp.StatusCode)
				}
				continue
			}
			if resp.StatusCode != http.StatusBadRequest || decodeErr != nil || he.Code != "bad_request" {
				t.Errorf("%s, tail %q: status %d code %q (%v), want 400 bad_request", h.name, tc.tail, resp.StatusCode, he.Code, decodeErr)
			}
		}
	}
	// Only the accepted bodies were counted: two per handler. The
	// coordinator's two batch rows and second predict are local hits, so
	// its own traffic put one row on the worker.
	if got := bc.coord.Stats(context.Background()).Coordinator.Received; got != 4 {
		t.Errorf("coordinator received %d requests, want the 4 well-formed ones", got)
	}
	if got := bc.workers[0].rows(); got != 4+1 {
		t.Errorf("worker admitted %d rows, want 4 of its own and 1 routed", got)
	}
}
