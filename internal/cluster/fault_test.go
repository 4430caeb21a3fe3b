package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dlrmperf"
	"dlrmperf/internal/client"
	"dlrmperf/internal/serve"
)

// affineDevice returns a device name whose rendezvous rank-0 among the
// live workers is want — fault tests use it to aim traffic at the
// worker they are about to kill.
func affineDevice(t *testing.T, live []Worker, want string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		dev := fmt.Sprintf("gpu-%d", i)
		if Rank(live, dev)[0].ID == want {
			return dev
		}
	}
	t.Fatal("no device ranks the target worker first (rendezvous broken?)")
	return ""
}

// TestWorkerKilledMidStreamRetries is the headline fault injection:
// the worker owning a device dies mid-response, the coordinator counts
// the broken attempt under rejected.worker_failed, retries once on the
// next-ranked candidate, and the client transparently gets a served
// row from the survivor. The dead worker is quarantined, so follow-up
// traffic goes straight to the survivor without another failure.
func TestWorkerKilledMidStreamRetries(t *testing.T) {
	coord, workers := newTestCluster(t, 2, nil)
	live := coord.reg.Live()
	victim, survivor := workers[0], workers[1]
	dev := affineDevice(t, live, victim.id)

	// Prime: the device's first request lands (and "calibrates") on the
	// victim.
	if row, err := coord.PredictOne(context.Background(), req(dev, "w", 512), false); err != nil || row.Error != "" {
		t.Fatalf("prime: %v / %q", err, row.Error)
	}
	if victim.receivedCount() != 1 || survivor.receivedCount() != 0 {
		t.Fatalf("prime routed %d/%d, want 1/0", victim.receivedCount(), survivor.receivedCount())
	}

	// Kill mid-stream: every further response on the victim aborts the
	// connection, exactly like a process dying with the request in
	// flight.
	victim.killed.Store(true)
	row, err := coord.PredictOne(context.Background(), req(dev, "w", 1024), false)
	if err != nil || row.Error != "" {
		t.Fatalf("failover request: %v / %q, want transparent success via survivor", err, row.Error)
	}
	if survivor.receivedCount() != 1 {
		t.Fatalf("survivor served %d, want 1 (the retried request)", survivor.receivedCount())
	}
	st := coord.Stats(context.Background())
	if st.Rejected.WorkerFailed != 1 {
		t.Fatalf("worker_failed = %d, want 1 (the broken first attempt)", st.Rejected.WorkerFailed)
	}
	assertAggInvariant(t, st)

	// The victim is quarantined: it is out of the live set and the next
	// request for its device routes straight to the survivor.
	if lv := coord.reg.Live(); len(lv) != 1 || lv[0].ID != survivor.id {
		t.Fatalf("live after failure = %+v, want only the survivor", lv)
	}
	if row, err := coord.PredictOne(context.Background(), req(dev, "w", 2048), false); err != nil || row.Error != "" {
		t.Fatalf("post-failover request: %v / %q", err, row.Error)
	}
	if st := coord.Stats(context.Background()); st.Rejected.WorkerFailed != 1 {
		t.Fatalf("worker_failed grew to %d after quarantine, want still 1", st.Rejected.WorkerFailed)
	}
}

// TestWorkerDeadSocketRetries is the harsher variant: the worker's
// listener is gone entirely (connection refused), which must take the
// same retry path.
func TestWorkerDeadSocketRetries(t *testing.T) {
	coord, workers := newTestCluster(t, 2, nil)
	live := coord.reg.Live()
	victim, survivor := workers[0], workers[1]
	dev := affineDevice(t, live, victim.id)

	victim.srv.CloseClientConnections()
	victim.srv.Close()

	row, err := coord.PredictOne(context.Background(), req(dev, "w", 512), true)
	if err != nil || row.Error != "" {
		t.Fatalf("failover: %v / %q", err, row.Error)
	}
	if survivor.receivedCount() != 1 {
		t.Fatalf("survivor served %d, want 1", survivor.receivedCount())
	}
	if st := coord.Stats(context.Background()); st.Rejected.WorkerFailed != 1 {
		t.Fatalf("worker_failed = %d, want 1", st.Rejected.WorkerFailed)
	}
}

// TestAllWorkersDead: with every candidate failing, the single retry
// is spent and the request surfaces 502 worker_failed, with both
// broken attempts accounted.
func TestAllWorkersDead(t *testing.T) {
	coord, workers := newTestCluster(t, 2, nil)
	for _, fw := range workers {
		fw.killed.Store(true)
	}
	_, err := coord.PredictOne(context.Background(), req("gpu-0", "w", 512), false)
	var re *serve.StatusError
	if !errors.As(err, &re) || re.Status != http.StatusBadGateway || re.Code != "worker_failed" || re.RetryAfter != 0 {
		t.Fatalf("err = %v, want 502 worker_failed", err)
	}
	st := coord.Stats(context.Background())
	if st.Rejected.WorkerFailed != 2 {
		t.Fatalf("worker_failed = %d, want 2 (both attempts)", st.Rejected.WorkerFailed)
	}
	assertAggInvariant(t, st)
}

// TestDrainingWorkerFailsOver: a worker shutting down reports batch
// rows as 200s carrying the drain sentinel in the row error; the
// coordinator must treat that as a routing failure and fail the row
// over to the survivor instead of delivering a terminal "draining"
// row — batch rows never shed just because their affine worker is
// going away.
func TestDrainingWorkerFailsOver(t *testing.T) {
	coord, workers := newTestCluster(t, 2, nil)
	victim, survivor := workers[0], workers[1]
	dev := affineDevice(t, coord.reg.Live(), victim.id)

	victim.draining.Store(true)
	row, err := coord.PredictOne(context.Background(), req(dev, "w", 512), true)
	if err != nil || row.Error != "" {
		t.Fatalf("batch row via draining worker: %v / %q, want failover success", err, row.Error)
	}
	if survivor.receivedCount() != 1 {
		t.Fatalf("survivor served %d, want 1", survivor.receivedCount())
	}
	st := coord.Stats(context.Background())
	if st.Rejected.WorkerFailed != 1 {
		t.Fatalf("worker_failed = %d, want 1 (the draining attempt)", st.Rejected.WorkerFailed)
	}
}

// TestClientCancelDoesNotQuarantine: a client that times out while its
// affine worker is legitimately computing must NOT mark the worker
// failed (that would evict the device's hot calibration) nor count a
// worker failure — the client died, not the worker.
func TestClientCancelDoesNotQuarantine(t *testing.T) {
	coord, workers := newTestCluster(t, 2, nil)
	dev := affineDevice(t, coord.reg.Live(), workers[0].id)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := coord.PredictOne(ctx, req(dev, "slow", 512), false)
	if err == nil {
		t.Fatal("expired client got a result")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the client's deadline", err)
	}
	if live := coord.reg.Live(); len(live) != 2 {
		t.Fatalf("live after client cancel = %d workers, want 2 (no quarantine)", len(live))
	}
	if st := coord.Stats(context.Background()); st.Rejected.WorkerFailed != 0 {
		t.Fatalf("worker_failed = %d, want 0 for a client-side cancel", st.Rejected.WorkerFailed)
	}
}

// TestHeartbeatExpiryStopsRouting pins the liveness window with an
// injected clock: a registered worker that stops heartbeating is out
// of the routing set within one window — no real sleeping — and a
// fresh heartbeat brings it straight back.
func TestHeartbeatExpiryStopsRouting(t *testing.T) {
	reg := NewRegistry(5 * time.Second)
	now := time.Unix(1000, 0)
	reg.live.now = func() time.Time { return now }

	a, b := newFakeWorker(t), newFakeWorker(t)
	reg.Register(a.id, a.srv.URL)
	reg.AddStatic(b.srv.URL)
	coord := New(Config{Registry: reg, Cache: passThrough{}})
	dev := affineDevice(t, reg.Live(), a.id)

	if row, err := coord.PredictOne(context.Background(), req(dev, "w", 512), false); err != nil || row.Error != "" {
		t.Fatalf("prime: %v / %q", err, row.Error)
	}
	if a.receivedCount() != 1 {
		t.Fatalf("affine worker served %d, want 1", a.receivedCount())
	}

	// One liveness window later with no heartbeat, the registry stops
	// routing to it: the same device now lands on the static survivor.
	now = now.Add(5*time.Second + time.Millisecond)
	if lv := reg.Live(); len(lv) != 1 || lv[0].ID != b.id {
		t.Fatalf("live after expiry = %+v, want only the static worker", lv)
	}
	if row, err := coord.PredictOne(context.Background(), req(dev, "w", 1024), false); err != nil || row.Error != "" {
		t.Fatalf("post-expiry: %v / %q", err, row.Error)
	}
	if a.receivedCount() != 1 || b.receivedCount() != 1 {
		t.Fatalf("routed %d/%d after expiry, want 1/1", a.receivedCount(), b.receivedCount())
	}

	// A fresh heartbeat restores routing — and lifts any quarantine.
	reg.Register(a.id, a.srv.URL)
	if lv := reg.Live(); len(lv) != 2 {
		t.Fatalf("live after re-register = %+v, want both", lv)
	}

	// The snapshot reports the dead period honestly too.
	now = now.Add(6 * time.Second)
	for _, info := range reg.Snapshot() {
		if info.ID == a.id && info.Live {
			t.Fatalf("snapshot shows expired worker live: %+v", info)
		}
		if info.ID == b.id && !info.Live {
			t.Fatalf("snapshot shows static worker dead: %+v", info)
		}
	}
}

// TestStaticWorkerQuarantineHeals: a static worker that fails is
// quarantined for one liveness window, then rejoins the routing set
// (self-healing without heartbeats).
func TestStaticWorkerQuarantineHeals(t *testing.T) {
	reg := NewRegistry(5 * time.Second)
	now := time.Unix(2000, 0)
	reg.live.now = func() time.Time { return now }
	reg.AddStatic("http://worker-a")
	reg.AddStatic("http://worker-b")

	reg.MarkFailed("http://worker-a")
	if lv := reg.Live(); len(lv) != 1 || lv[0].ID != "http://worker-b" {
		t.Fatalf("live during quarantine = %+v", lv)
	}
	now = now.Add(5*time.Second + time.Millisecond)
	if lv := reg.Live(); len(lv) != 2 {
		t.Fatalf("live after quarantine lapse = %+v, want both", lv)
	}
}

// TestInvariantAcrossHandoffAndMigration is the replication fault
// drill: traffic flows through a two-coordinator group, the leader
// dies (lease hand-off), then a device's home worker dies (asset
// migration) — and at every quiescent point, on whichever coordinator
// answers, the accounting identity hits + misses + rejected ==
// requests still holds. Control-plane traffic (gossip, installs)
// must move no request counters.
func TestInvariantAcrossHandoffAndMigration(t *testing.T) {
	engA, err := dlrmperf.NewEngineWith(dlrmperf.EngineConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	engB, err := dlrmperf.NewEngineWith(dlrmperf.EngineConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cA, cB, urlA, urlB := peerPair(t, engA, engB)
	leader, survivor := cA, cB
	if urlB < urlA {
		leader, survivor = cB, cA
	}
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	for _, c := range []*Coordinator{cA, cB} {
		c.reg.AddStatic(w1.srv.URL)
		c.reg.AddStatic(w2.srv.URL)
	}
	// Both leases live: the lower URL holds the lease.
	cA.lease.MarkSeen(urlB)
	cB.lease.MarkSeen(urlA)
	if !isLeader(leader.lease) || isLeader(survivor.lease) {
		t.Fatalf("lease split: leader=%v survivor=%v", leader.lease.Snapshot(), survivor.lease.Snapshot())
	}
	ctx := context.Background()

	// A device the coordinators' engines serve, so its rows replicate:
	// a peer installs no row for a device or workload no worker would
	// serve. w1 names the device's rendezvous home.
	dev := "V100"
	if Rank(leader.reg.Live(), dev)[0].ID != w1.id {
		w1, w2 = w2, w1
	}

	// Phase 1: traffic through the leader — misses fetch from workers
	// and replicate to the survivor.
	for i := 0; i < 4; i++ {
		if row, err := leader.PredictOne(ctx, req(dev, "DLRM_default", int64(512+i%2)), false); err != nil || row.Error != "" {
			t.Fatalf("phase 1 request %d: %v / %q", i, err, row.Error)
		}
	}
	// The home's heartbeat pushed its calibration assets group-wide.
	if err := (client.New(leader.lease.Self())).PushAssets(ctx, w1.id, dev, 1, fakeAssets(dev)); err != nil {
		t.Fatal(err)
	}
	leader.Drain(false) // quiesce the replication fan, then "kill" the leader
	assertAggInvariant(t, leader.Stats(ctx))

	// Phase 2: lease hand-off. The survivor ages the dead leader out of
	// its window (injected clock — no sleeping) and takes the lease.
	now := time.Now().Add(2 * DefaultLiveness)
	survivor.lease.live.now = func() time.Time { return now }
	if !isLeader(survivor.lease) {
		t.Fatalf("survivor did not take the lease: %+v", survivor.lease.Snapshot())
	}
	// No cached result was lost: the fingerprints fetched through the
	// dead leader are local hits on the survivor — the workers see no
	// re-fetch.
	routed := w1.receivedCount() + w2.receivedCount()
	for i := 0; i < 2; i++ {
		row, err := survivor.PredictOne(ctx, req(dev, "DLRM_default", int64(512+i)), false)
		if err != nil || row.Error != "" || !row.CacheHit {
			t.Fatalf("replicated re-query %d = %+v, %v; want a local hit", i, row, err)
		}
	}
	if got := w1.receivedCount() + w2.receivedCount(); got != routed {
		t.Fatalf("re-queries reached workers (%d -> %d routed), want local hits only", routed, got)
	}
	assertAggInvariant(t, survivor.Stats(ctx))
	if gossiped := survivor.vault.snapshot()[dev]; gossiped.Worker != w1.id {
		t.Fatalf("survivor's vault missing the gossiped assets: %+v", gossiped)
	}

	// Phase 3: the device's home dies. A FRESH fingerprint on the
	// survivor coordinator fails over to w2 with the assets installed
	// first — warm, ledger unchanged — and the invariant still holds:
	// the broken attempt and the served retry are both accounted, the
	// install is not.
	w1.killed.Store(true)
	row, err := survivor.PredictOne(ctx, req(dev, "DLRM_default", 4096), false)
	if err != nil || row.Error != "" || row.CacheHit {
		t.Fatalf("migration request = %+v, %v; want a routed miss via w2", row, err)
	}
	if !w2.hasInstalled(dev) {
		t.Fatal("w2 served the failover request cold")
	}
	if cals := w2.calibratedDevices(); cals[dev] != 0 {
		t.Fatalf("w2's calibration ledger grew after the warm hand-off: %v", cals)
	}
	st := survivor.Stats(ctx)
	if st.Rejected.WorkerFailed != 1 {
		t.Fatalf("worker_failed = %d, want 1 (the broken attempt on w1)", st.Rejected.WorkerFailed)
	}
	if st.Coordinator.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", st.Coordinator.Migrations)
	}
	assertAggInvariant(t, st)
}

// instantBackend is the smallest serve.Backend: every prediction that
// resolves (the facade's own PredictRequest.Resolve verdict) is an
// immediate miss, every one that does not a validation reject, and it
// holds no calibration, so it refuses every asset install. It puts
// REAL serve.New workers — real admission, real request validation —
// behind a coordinator without calibrating.
type instantBackend struct{ misses, rejected atomic.Uint64 }

func (b *instantBackend) PredictContext(_ context.Context, req dlrmperf.PredictRequest) dlrmperf.PredictResult {
	if _, err := req.Resolve(); err != nil {
		b.rejected.Add(1)
		return dlrmperf.PredictResult{Request: req, Err: err}
	}
	b.misses.Add(1)
	return dlrmperf.PredictResult{Request: req, GPUs: 1}
}
func (b *instantBackend) CacheStats() (hits, misses uint64) { return 0, b.misses.Load() }
func (b *instantBackend) RejectedRequests() uint64          { return b.rejected.Load() }
func (b *instantBackend) AssetStats() dlrmperf.AssetStats   { return dlrmperf.AssetStats{} }
func (b *instantBackend) Devices() []string                 { return nil }
func (b *instantBackend) CalibrationRuns(string) int        { return 0 }
func (b *instantBackend) LoadAssets([]byte) error           { return errors.New("instant: no assets") }

// TestBadClientInputDoesNotQuarantine: a client's malformed request is
// a verdict on the request, never on the workers. Over HTTP the
// coordinator refuses an unknown priority at its own boundary — 400
// bad_priority, single and batch, before any counter moves — and past
// the boundary a worker's 4xx is handed back with the worker's status
// and code instead of being treated as a dead worker. Either way the
// routing set keeps every worker, worker_failed stays 0, and the next
// valid request is served. (Before the fix each such request
// quarantined both workers: live 2 -> 0, then 503 no_workers for a
// whole liveness window.)
func TestBadClientInputDoesNotQuarantine(t *testing.T) {
	reg := NewRegistry(0)
	for i := 0; i < 2; i++ {
		srv := serve.New(serve.Config{Backend: &instantBackend{}})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Drain() })
		reg.Register(ts.URL, ts.URL)
	}
	coord := New(Config{Registry: reg, Cache: passThrough{}})
	front := httptest.NewServer(coord.Handler())
	defer front.Close()
	cl := client.New(front.URL)
	ctx := context.Background()
	bogus := serve.Request{Workload: "w", Device: "V100", Batch: 512, Priority: "bogus"}

	wantVerdict := func(what string, err error) {
		t.Helper()
		var api *serve.StatusError
		if !errors.As(err, &api) || api.Status != http.StatusBadRequest || api.Code != "bad_priority" {
			t.Fatalf("%s: err = %v, want 400 bad_priority", what, err)
		}
	}
	_, err := cl.Predict(ctx, bogus)
	wantVerdict("single over HTTP", err)
	err = cl.PredictBatchInto(ctx, []serve.Request{bogus}, &serve.Report{})
	wantVerdict("batch over HTTP", err)
	if st := coord.Stats(ctx); st.Coordinator.Received != 0 {
		t.Fatalf("received = %d, want 0: the boundary rejects before any counter moves", st.Coordinator.Received)
	}
	// Past the boundary (in-process callers, or a worker stricter than
	// this coordinator): the worker's own 400 passes through forward.
	_, err = coord.PredictOne(ctx, bogus, false)
	wantVerdict("single via forward", err)
	_, err = coord.PredictOne(ctx, bogus, true)
	wantVerdict("batch row via forward", err)

	if live := reg.Live(); len(live) != 2 {
		t.Fatalf("live after bad input = %d workers, want 2 (no quarantine)", len(live))
	}
	st := coord.Stats(ctx)
	if st.Rejected.WorkerFailed != 0 {
		t.Fatalf("worker_failed = %d, want 0 for a client's bad input", st.Rejected.WorkerFailed)
	}
	assertAggInvariant(t, st)
	bogus.Priority = "high"
	if row, err := cl.Predict(ctx, bogus); err != nil || row.Error != "" {
		t.Fatalf("valid request after bad input: %v / %q", err, row.Error)
	}
}

// TestCoordinatorCacheNeverAliasesInvalidRequest: a request every
// worker rejects gets the same answer from the coordinator whether its
// valid twin's row is cached or not. Single-device identity drops the
// comm field, so {"comm":"pcie"} on a one-GPU request shares the twin's
// fingerprint; the pass-through cache must route it to a worker both
// times (the worker owns the verdict and the rejected.validation
// tally) instead of answering the warm repeat with the twin's row.
func TestCoordinatorCacheNeverAliasesInvalidRequest(t *testing.T) {
	reg := NewRegistry(0)
	for i := 0; i < 2; i++ {
		srv := serve.New(serve.Config{Backend: &instantBackend{}})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Drain() })
		reg.Register(ts.URL, ts.URL)
	}
	cache, err := dlrmperf.NewEngineWith(dlrmperf.EngineConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	coord := New(Config{Registry: reg, Cache: cache})
	ctx := context.Background()
	valid := serve.Request{Workload: "DLRM_default", Batch: 512, Device: "V100"}
	invalid := valid
	invalid.Comm = "pcie"

	rejected := func(what string) serve.Result {
		t.Helper()
		before := coord.Stats(ctx)
		row, err := coord.PredictOne(ctx, invalid, false)
		if err != nil || row.Error == "" || row.CacheHit {
			t.Fatalf("%s: invalid request = %+v, %v; want the worker's error row", what, row, err)
		}
		after := coord.Stats(ctx)
		if after.Rejected.Validation != before.Rejected.Validation+1 {
			t.Fatalf("%s: worker rejected.validation %d -> %d, want +1", what, before.Rejected.Validation, after.Rejected.Validation)
		}
		if after.Coordinator.LocalCacheHits != before.Coordinator.LocalCacheHits {
			t.Fatalf("%s: local_cache_hits moved %d -> %d", what, before.Coordinator.LocalCacheHits, after.Coordinator.LocalCacheHits)
		}
		assertAggInvariant(t, after)
		return row
	}

	cold := rejected("cold")
	for i := 0; i < 2; i++ { // warm the twin: a routed miss, then a local hit
		if row, err := coord.PredictOne(ctx, valid, false); err != nil || row.Error != "" || row.CacheHit != (i == 1) {
			t.Fatalf("valid twin call %d = %+v, %v", i, row, err)
		}
	}
	if warm := rejected("warm"); warm.Error != cold.Error {
		t.Fatalf("verdict changed with cache temperature: cold %q, warm %q", cold.Error, warm.Error)
	}
	if st := coord.Stats(ctx); st.Coordinator.LocalCacheHits != 1 {
		t.Fatalf("local_cache_hits = %d, want 1 (the twin's repeat only)", st.Coordinator.LocalCacheHits)
	}
}

// TestOneClockExpiresWorkersAndPeers: the coordinator has a single
// clock seam. Advancing the registry's injected clock past the window
// expires a registered worker AND a peer's lease in the same
// coordinator — the lease takes its clock and window from the registry
// it is paired with.
func TestOneClockExpiresWorkersAndPeers(t *testing.T) {
	reg := NewRegistry(5 * time.Second)
	now := time.Unix(6000, 0)
	reg.live.now = func() time.Time { return now }
	coord := New(Config{Registry: reg, Cache: passThrough{}, Self: "http://b", Peers: []string{"http://a"}})

	reg.Register("w1", "http://w1")
	coord.lease.MarkSeen("http://a")
	if len(reg.Live()) != 1 || coord.lease.Leader() != "http://a" {
		t.Fatalf("before expiry: live = %+v, leader = %q; want w1 and http://a", reg.Live(), coord.lease.Leader())
	}
	if coord.lease.live.ttl != reg.TTL() {
		t.Fatalf("lease window %v != registry window %v", coord.lease.live.ttl, reg.TTL())
	}

	now = now.Add(5*time.Second + time.Millisecond)
	if live := reg.Live(); len(live) != 0 {
		t.Fatalf("worker still live one window later: %+v", live)
	}
	if got := coord.lease.Leader(); got != "http://b" {
		t.Fatalf("leader one window later = %q, want self (peer expired)", got)
	}
	st := coord.Stats(context.Background())
	if st.Lease.Peers[0].Live || st.Workers[0].Live {
		t.Fatalf("snapshot shows an expired member live: peer %+v, worker %+v", st.Lease.Peers[0], st.Workers[0].WorkerInfo)
	}
}
