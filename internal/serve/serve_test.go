package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dlrmperf"
)

// fakeBackend is a controllable Backend: requests whose workload is
// "block" park on release until the test frees them (or their context
// expires, a miss that returns ctx.Err()); "reject" fails validation.
// Counters follow the engine's conventions (a validated request is one
// hit or one miss, rejects separate) so Stats invariants can be
// asserted against it. An asset payload containing "bad" is refused,
// any other installs.
type fakeBackend struct {
	release chan struct{}
	started chan struct{} // one tick per request entering the blocked section

	hits     atomic.Uint64
	misses   atomic.Uint64
	rejected atomic.Uint64
	installs atomic.Uint64

	mu   sync.Mutex
	seen map[string]bool
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{
		release: make(chan struct{}),
		started: make(chan struct{}, 1024),
		seen:    map[string]bool{},
	}
}

func (f *fakeBackend) PredictContext(ctx context.Context, req dlrmperf.PredictRequest) dlrmperf.PredictResult {
	if req.Workload == "reject" {
		f.rejected.Add(1)
		return dlrmperf.PredictResult{Request: req, Err: errors.New("fake: rejected")}
	}
	if req.Workload == "block" {
		f.started <- struct{}{}
		select {
		case <-f.release:
		case <-ctx.Done():
			f.misses.Add(1)
			return dlrmperf.PredictResult{Request: req, Err: ctx.Err()}
		}
	}
	// Full request identity, so grid sweeps over distinct scenarios and
	// batches see engine-like hit patterns (identical requests hit,
	// distinct ones miss).
	key := fmt.Sprintf("%s/%s/%s/%d/%d/%s/%t",
		req.Workload, req.Scenario, req.Device, req.Batch, req.GPUs, req.Comm, req.SharedOverheads)
	f.mu.Lock()
	hit := f.seen[key]
	f.seen[key] = true
	f.mu.Unlock()
	if hit {
		f.hits.Add(1)
	} else {
		f.misses.Add(1)
	}
	return dlrmperf.PredictResult{
		Request:           req,
		Prediction:        dlrmperf.Prediction{E2EUs: 42, ActiveUs: 40, CPUUs: 2},
		GPUs:              1,
		ScalingEfficiency: 1,
		CacheHit:          hit,
	}
}

func (f *fakeBackend) CacheStats() (uint64, uint64)    { return f.hits.Load(), f.misses.Load() }
func (f *fakeBackend) RejectedRequests() uint64        { return f.rejected.Load() }
func (f *fakeBackend) AssetStats() dlrmperf.AssetStats { return dlrmperf.AssetStats{} }
func (f *fakeBackend) Devices() []string               { return []string{"FakeGPU"} }
func (f *fakeBackend) CalibrationRuns(string) int      { return 0 }

func (f *fakeBackend) LoadAssets(data []byte) error {
	if strings.Contains(string(data), "bad") {
		return errors.New("fake: malformed asset payload")
	}
	f.installs.Add(1)
	return nil
}

// assertInvariant checks the /stats accounting identity: every admitted
// request is a hit, a miss, or a rejection.
func assertInvariant(t *testing.T, st Stats) {
	t.Helper()
	if got := st.Cache.Hits + st.Cache.Misses + st.Rejected.Total(); got != st.Requests {
		t.Errorf("stats invariant broken: hits %d + misses %d + rejected %d = %d, requests %d",
			st.Cache.Hits, st.Cache.Misses, st.Rejected.Total(), got, st.Requests)
	}
}

// TestAdmissionBackpressure drives the bounded queue to capacity with a
// deliberately blocked worker and verifies the 429 path: non-blocking
// admissions fail fast with ErrQueueFull, the rejection is counted, and
// every admitted request still completes once the backend unblocks.
func TestAdmissionBackpressure(t *testing.T) {
	fb := newFakeBackend()
	// TenantQueueCap = QueueDepth: this test drives the queue to its
	// global bound with a single (default) tenant, so the per-tenant
	// share must not trip first.
	s := New(Config{Backend: fb, QueueDepth: 2, Workers: 1, TenantQueueCap: 2})
	defer s.Drain()

	blockReq := Request{Workload: "block", Device: "FakeGPU"}
	type submitResult struct {
		res Result
		err error
	}
	inFlight := make([]chan submitResult, 0, 3)
	// First admission: the single worker picks it up and parks on the
	// backend; wait for it to start so queue occupancy is deterministic.
	ch := make(chan submitResult, 1)
	go func() { r, err := s.TrySubmit(context.Background(), blockReq); ch <- submitResult{r, err} }()
	inFlight = append(inFlight, ch)
	<-fb.started

	// Two more fill the queue (worker is parked, nothing drains).
	for i := 0; i < 2; i++ {
		ch := make(chan submitResult, 1)
		go func() { r, err := s.TrySubmit(context.Background(), blockReq); ch <- submitResult{r, err} }()
		inFlight = append(inFlight, ch)
	}
	waitFor(t, func() bool { return s.Stats().Queue.Depth == 2 })

	// The queue is full: the next non-blocking admissions shed load.
	const shed = 4
	for i := 0; i < shed; i++ {
		if _, err := s.TrySubmit(context.Background(), blockReq); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("admission %d over capacity: err = %v, want ErrQueueFull", i, err)
		}
	}
	st := s.Stats()
	if st.Rejected.QueueFull != shed {
		t.Fatalf("queue-full rejections = %d, want %d", st.Rejected.QueueFull, shed)
	}
	if st.Queue.PeakDepth != 2 {
		t.Fatalf("peak queue depth = %d, want 2", st.Queue.PeakDepth)
	}

	close(fb.release)
	for i, ch := range inFlight {
		got := <-ch
		if got.err != nil || got.res.Error != "" {
			t.Fatalf("admitted request %d failed after release: %v / %q", i, got.err, got.res.Error)
		}
	}
	assertInvariant(t, s.Stats())
}

// TestDrainGraceful: queued and executing requests finish during a
// drain, while new admissions are rejected with ErrDraining and counted
// distinctly from queue-full rejections.
func TestDrainGraceful(t *testing.T) {
	fb := newFakeBackend()
	s := New(Config{Backend: fb, QueueDepth: 4, Workers: 1})

	blockReq := Request{Workload: "block", Device: "FakeGPU"}
	results := make(chan Result, 3)
	for i := 0; i < 3; i++ {
		go func() {
			r, err := s.Submit(context.Background(), blockReq)
			if err != nil {
				r = Result{Error: err.Error()}
			}
			results <- r
		}()
	}
	<-fb.started
	waitFor(t, func() bool { return s.Stats().Queue.Depth == 2 })

	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	waitFor(t, func() bool { return s.Draining() })

	if _, err := s.Submit(context.Background(), Request{Workload: "x", Device: "FakeGPU"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: err = %v, want ErrDraining", err)
	}
	if _, err := s.TrySubmit(context.Background(), Request{Workload: "x", Device: "FakeGPU"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("try-submit during drain: err = %v, want ErrDraining", err)
	}
	select {
	case <-drained:
		t.Fatal("drain completed while requests were still in flight")
	default:
	}

	close(fb.release)
	for i := 0; i < 3; i++ {
		if r := <-results; r.Error != "" {
			t.Fatalf("in-flight request %d failed during drain: %s", i, r.Error)
		}
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("drain never completed")
	}
	st := s.Stats()
	if st.Rejected.Draining != 2 {
		t.Errorf("draining rejections = %d, want 2", st.Rejected.Draining)
	}
	assertInvariant(t, st)
}

// TestConcurrentClientsRace floods the server with N goroutine clients
// mixing compute, duplicate, rejected, and canceled requests — run
// under -race this is the streaming-safety test: counters stay
// consistent and every client gets exactly one answer.
func TestConcurrentClientsRace(t *testing.T) {
	fb := newFakeBackend()
	close(fb.release) // nothing blocks; "block" requests pass straight through
	s := New(Config{Backend: fb, QueueDepth: 32, Workers: 8})
	defer s.Drain()

	const clients = 64
	var wg sync.WaitGroup
	var answered atomic.Uint64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := Request{Workload: "dup", Device: "FakeGPU"}
			if i%8 == 0 {
				req.Workload = "reject"
			}
			res, err := s.Submit(context.Background(), req)
			if err == nil {
				answered.Add(1)
				if req.Workload == "reject" && res.Error == "" {
					t.Error("rejected request served")
				}
			}
		}(i)
	}
	wg.Wait()
	if answered.Load() != clients {
		t.Fatalf("answered = %d, want %d", answered.Load(), clients)
	}
	st := s.Stats()
	if st.Requests != clients {
		t.Fatalf("requests = %d, want %d", st.Requests, clients)
	}
	if st.Cache.Misses != 1 {
		t.Errorf("misses = %d, want 1 (single computation of the duplicate scenario)", st.Cache.Misses)
	}
	assertInvariant(t, st)
}

// TestStatsSnapshotInvariantUnderLoad hammers Stats() from a dedicated
// goroutine while concurrent clients mix computed, duplicate, rejected,
// queue-full, and blocked traffic, asserting the accounting invariant
// Accounted() <= Requests on EVERY snapshot — not just at quiescence.
// The bound is only guaranteed by Stats' monotonic read order (bucket
// counters before the request total); with the order reversed a bucket
// increment can be observed without its admission and the snapshot
// reads hits+misses+rejected > requests. Run under -race this is also
// the data-race check on the snapshot path.
func TestStatsSnapshotInvariantUnderLoad(t *testing.T) {
	fb := newFakeBackend()
	close(fb.release) // nothing parks; traffic flows freely
	s := New(Config{Backend: fb, QueueDepth: 4, Workers: 2})
	defer s.Drain()

	stop := make(chan struct{})
	var snapshots atomic.Uint64
	var hammer sync.WaitGroup
	for g := 0; g < 2; g++ {
		hammer.Add(1)
		go func() {
			defer hammer.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.Stats()
				snapshots.Add(1)
				if got := st.Accounted(); got > st.Requests {
					t.Errorf("snapshot overshoot: hits %d + misses %d + rejected %d = %d > requests %d",
						st.Cache.Hits, st.Cache.Misses, st.Rejected.Total(), got, st.Requests)
					return
				}
			}
		}()
	}

	const clients, perClient = 16, 50
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				req := Request{Workload: "dup", Device: "FakeGPU"}
				switch {
				case i%5 == 0:
					req.Workload = "reject" // backend validation reject
				case i%7 == 0:
					req.Workload = "u" // distinct scenario: a miss
				}
				if c%2 == 0 {
					s.Submit(context.Background(), req)
				} else {
					// Non-blocking: some of these shed with queue-full,
					// exercising the server-side rejection buckets too.
					s.TrySubmit(context.Background(), req)
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	hammer.Wait()

	if snapshots.Load() == 0 {
		t.Fatal("hammer took no snapshots")
	}
	st := s.Stats()
	if st.Requests != clients*perClient {
		t.Fatalf("requests = %d, want %d", st.Requests, clients*perClient)
	}
	if got := st.Accounted(); got != st.Requests {
		t.Fatalf("quiescent invariant broken: accounted %d != requests %d\n%+v", got, st.Requests, st)
	}
	t.Logf("%d snapshots verified against %d requests", snapshots.Load(), st.Requests)
}

// TestStatsServiceLedger drives the fake backend, which keeps no
// service counters of its own, through a miss, a hit, a validation
// reject and a request canceled while blocked, and checks the ledger
// the queue keeps at quiescence: served is hits + misses, the one
// canceled job is counted, nothing is left running, and latency and
// the smoothed service time come from the jobs the workers ran.
func TestStatsServiceLedger(t *testing.T) {
	fb := newFakeBackend()
	const workers = 2
	s := New(Config{Backend: fb, QueueDepth: 4, Workers: workers})
	defer s.Drain()

	reqs := []Request{
		{Workload: "ok", Device: "FakeGPU"},                   // miss
		{Workload: "ok", Device: "FakeGPU"},                   // hit
		{Workload: "reject", Device: "FakeGPU"},               // validation reject
		{Workload: "block", Device: "FakeGPU", TimeoutMs: 20}, // canceled while blocked
	}
	for i, req := range reqs {
		res, err := s.Submit(context.Background(), req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if req.Workload == "block" && !strings.Contains(res.Error, context.DeadlineExceeded.Error()) {
			t.Fatalf("blocked request error = %q, want deadline exceeded", res.Error)
		}
	}

	st := s.Stats()
	assertInvariant(t, st)
	if st.Cache.Hits != 1 || st.Cache.Misses != 2 || st.Rejected.Validation != 1 {
		t.Errorf("cache %+v, validation rejects %d, want 1 hit, 2 misses, 1 reject", st.Cache, st.Rejected.Validation)
	}
	if st.Served != st.Cache.Hits+st.Cache.Misses {
		t.Errorf("served = %d, want hits + misses = %d", st.Served, st.Cache.Hits+st.Cache.Misses)
	}
	if st.Canceled != 1 {
		t.Errorf("canceled = %d, want 1", st.Canceled)
	}
	if q := st.Queue; q.InFlight != 0 || q.PeakInFlight < 1 || q.PeakInFlight > workers {
		t.Errorf("in flight %d, peak %d, want 0 and within [1, %d]", q.InFlight, q.PeakInFlight, workers)
	}
	lat := st.Latency
	if lat.MaxUs <= 0 || lat.TotalUs < lat.MaxUs {
		t.Errorf("latency %+v, want total >= max > 0", lat)
	}
	// TotalUs is the truncated sum of the service times AvgUs averages.
	if sum := lat.AvgUs * float64(len(reqs)); sum < float64(lat.TotalUs) || sum >= float64(lat.TotalUs+1) {
		t.Errorf("avg %.3fus over %d jobs sums to %.3fus, want the %dus total", lat.AvgUs, len(reqs), sum, lat.TotalUs)
	}
	if st.Queue.AvgServiceUs <= 0 {
		t.Errorf("avg_service_us = %v, want > 0", st.Queue.AvgServiceUs)
	}
}

// tinyConfig is the shared low-fidelity calibration preset, so the
// integration test calibrates in fractions of a second.
func tinyConfig() dlrmperf.EngineConfig {
	return dlrmperf.FastCalibConfig(23, 4)
}

// TestStreamIntegrationRealEngine is the end-to-end streaming contract
// over a real (tiny) engine: a request canceled mid-calibration
// returns the context error without poisoning the singleflight entry,
// duplicate in-flight scenarios collapse to one computation, and the
// stats invariant holds across all of it.
func TestStreamIntegrationRealEngine(t *testing.T) {
	eng, err := dlrmperf.NewEngineWith(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Backend: eng, QueueDepth: 32, Workers: 4})
	defer s.Drain()

	req := Request{Workload: dlrmperf.DLRMDefault, Batch: 512, Device: dlrmperf.V100}

	// 1ms deadline: cold calibration takes far longer, so this cancels
	// mid-calibration. The detached computation keeps running.
	short := req
	short.TimeoutMs = 1
	res, err := s.Submit(context.Background(), short)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("canceled request error = %q, want deadline exceeded", res.Error)
	}

	// Duplicate in-flight burst of the same scenario: every client is
	// served, exactly one computation happened across the canceled
	// request and the burst, and the device calibrated once.
	const clients = 6
	results := make([]Result, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Submit(context.Background(), req)
			if err != nil {
				r = Result{Error: err.Error()}
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	computed := 0
	for i, r := range results {
		if r.Error != "" {
			t.Fatalf("client %d failed: %s", i, r.Error)
		}
		if r.E2EUs != results[0].E2EUs {
			t.Fatalf("client %d prediction differs: %v vs %v", i, r.E2EUs, results[0].E2EUs)
		}
		if !r.CacheHit {
			computed++
		}
	}
	if computed > 1 {
		t.Fatalf("%d clients computed, want at most 1 (singleflight collapse)", computed)
	}
	if got := eng.CalibrationRuns(dlrmperf.V100); got != 1 {
		t.Fatalf("calibrations executed = %d, want 1 (canceled request must not poison the flight)", got)
	}
	st := s.Stats()
	if st.Canceled != 1 {
		t.Errorf("canceled = %d, want 1", st.Canceled)
	}
	assertInvariant(t, st)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never held")
}
