// Package serve_test drives the worker HTTP surface through
// internal/client — the same typed client the coordinator and the load
// generator use — so the wire contract and its refusals are
// tested end to end instead of against hand-rolled requests. It lives
// in the external test package because client imports serve.
package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"

	"dlrmperf/internal/client"
	"dlrmperf/internal/serve"
)

func newHTTPServer(t *testing.T, cfg serve.Config) (*serve.Server, *client.Client) {
	t.Helper()
	s := serve.New(cfg)
	t.Cleanup(s.Drain)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, client.New(ts.URL)
}

// TestHTTPSurface exercises the full wire surface through the typed
// client: predict with tenant and priority tags, worker-side cache
// verdicts, app-level error rows, the batch path, scenario listing,
// liveness, and a stats document that keeps the accounting identity
// and carries the per-tenant ledger.
func TestHTTPSurface(t *testing.T) {
	fb := serve.NewTestBackend()
	fb.Release() // nothing parks
	_, cl := newHTTPServer(t, serve.Config{Backend: fb, QueueDepth: 8, Workers: 2})
	ctx := context.Background()

	if h, err := cl.Healthz(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("healthz = %+v / %v, want ok", h, err)
	}

	req := serve.Request{Workload: "w", Device: "FakeGPU", Tenant: "acme", Priority: "high"}
	row, err := cl.Predict(ctx, req)
	if err != nil || row.Error != "" || row.E2EUs != 42 || row.CacheHit {
		t.Fatalf("predict = %+v / %v, want a computed miss", row, err)
	}
	if row, err = cl.Predict(ctx, req); err != nil || !row.CacheHit {
		t.Fatalf("repeat = %+v / %v, want a cache hit", row, err)
	}

	// A backend validation reject is an application-level verdict: the
	// row reports it, the transport does not fail.
	if row, err = cl.Predict(ctx, serve.Request{Workload: "reject", Device: "FakeGPU"}); err != nil || row.Error == "" {
		t.Fatalf("rejected workload = %+v / %v, want an error row with err == nil", row, err)
	}

	var rep serve.Report
	err = cl.PredictBatchInto(ctx, []serve.Request{
		{Workload: "a", Device: "FakeGPU", Tenant: "acme"},
		{Workload: "b", Device: "FakeGPU", Priority: "low"},
	}, &rep)
	if err != nil || rep.Requests != 2 || rep.Failed != 0 {
		t.Fatalf("batch = %+v / %v, want 2 clean rows", rep, err)
	}
	if rep.Results[0].Workload != "a" || rep.Results[1].Workload != "b" {
		t.Fatalf("batch rows out of order: %+v", rep.Results)
	}

	if names, err := cl.Scenarios(ctx); err != nil || len(names) == 0 {
		t.Fatalf("scenarios = %v / %v, want a non-empty list", names, err)
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	serve.AssertInvariant(t, st)
	if st.Requests != 5 {
		t.Fatalf("requests = %d, want 5", st.Requests)
	}
	if st.Tenants["acme"].Served != 3 {
		t.Fatalf("acme ledger = %+v, want 3 served", st.Tenants["acme"])
	}
	if st.Tenants["default"].Served != 2 {
		t.Fatalf("default-tenant ledger = %+v, want 2 served (untagged rows)", st.Tenants["default"])
	}
}

// TestHTTPBatchBodyKeys: a worker's POST /v1/predict/batch body
// describes its batch — results, requests, failed, elapsed_ms — plus
// error only when every row failed; no lifetime counter rides along.
func TestHTTPBatchBodyKeys(t *testing.T) {
	fb := serve.NewTestBackend()
	fb.Release()
	_, cl := newHTTPServer(t, serve.Config{Backend: fb, QueueDepth: 4, Workers: 1})
	for _, tc := range []struct {
		workloads []string
		allFailed bool
	}{{[]string{"a", "reject"}, false}, {[]string{"reject", "reject"}, true}} {
		var reqs []serve.Request
		for _, w := range tc.workloads {
			reqs = append(reqs, serve.Request{Workload: w, Device: "FakeGPU"})
		}
		var body map[string]json.RawMessage
		if err := cl.PredictBatchInto(context.Background(), reqs, &body); err != nil {
			t.Fatal(err)
		}
		want := []string{"elapsed_ms", "failed", "requests", "results"}
		if tc.allFailed {
			want = append(want, "error")
		}
		var got []string
		for k := range body {
			got = append(got, k)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: batch body keys %v, want %v", tc.workloads, got, want)
		}
	}
}

// TestHTTPBadPriority: an unknown priority string is rejected at the
// boundary with 400 bad_priority — on both the single and the batch
// path, before admission counts the request.
func TestHTTPBadPriority(t *testing.T) {
	fb := serve.NewTestBackend()
	fb.Release()
	s, cl := newHTTPServer(t, serve.Config{Backend: fb, QueueDepth: 4, Workers: 1})
	ctx := context.Background()

	var apiErr *serve.StatusError
	if _, err := cl.Predict(ctx, serve.Request{Workload: "w", Device: "FakeGPU", Priority: "urgent"}); !errors.As(err, &apiErr) ||
		apiErr.Status != http.StatusBadRequest || apiErr.Code != "bad_priority" || apiErr.RetryAfter != 0 {
		t.Fatalf("bad priority: err = %v, want 400 bad_priority", err)
	}
	if err := cl.PredictBatchInto(ctx, []serve.Request{
		{Workload: "w", Device: "FakeGPU"},
		{Workload: "w", Device: "FakeGPU", Priority: "urgent"},
	}, &serve.Report{}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != "bad_priority" {
		t.Fatalf("bad batch-row priority: err = %v, want 400 bad_priority", err)
	}
	if st := s.Stats(); st.Requests != 0 {
		t.Fatalf("boundary-rejected requests were admitted: %d received", st.Requests)
	}
}

// TestHTTPBatchTooLarge: a batch of MaxBatch+1 rows is refused at the
// boundary with 400 batch_too_large, before any counter moves.
func TestHTTPBatchTooLarge(t *testing.T) {
	fb := serve.NewTestBackend()
	fb.Release()
	s, cl := newHTTPServer(t, serve.Config{Backend: fb, QueueDepth: 4, Workers: 1})
	reqs := make([]serve.Request, serve.MaxBatch+1)
	for i := range reqs {
		reqs[i] = serve.Request{Workload: "w", Device: "FakeGPU"}
	}
	var apiErr *serve.StatusError
	if err := cl.PredictBatchInto(context.Background(), reqs, &serve.Report{}); !errors.As(err, &apiErr) ||
		apiErr.Status != http.StatusBadRequest || apiErr.Code != "batch_too_large" {
		t.Fatalf("%d-row batch: err = %v, want 400 batch_too_large", len(reqs), err)
	}
	if st := s.Stats(); st.Requests != 0 || st.Served != 0 || st.Accounted() != 0 || len(st.Tenants) != 0 {
		t.Fatalf("refused batch moved counters: %+v", st)
	}
}

// TestHTTP429RetryAfter drives the queue to capacity behind a parked
// worker and checks the typed backpressure error: 429 queue_full with
// the floor as the Retry-After hint (no request has
// completed, so there is no drain-rate observation to adapt from).
func TestHTTP429RetryAfter(t *testing.T) {
	fb := serve.NewTestBackend()
	s, cl := newHTTPServer(t, serve.Config{Backend: fb, QueueDepth: 2, Workers: 1, TenantQueueCap: 2})
	ctx := context.Background()

	blockReq := serve.Request{Workload: "block", Device: "FakeGPU"}
	var wg sync.WaitGroup
	submit := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if row, err := cl.Predict(ctx, blockReq); err != nil || row.Error != "" {
				t.Errorf("admitted request failed: %v / %q", err, row.Error)
			}
		}()
	}
	submit() // parked in the worker
	<-fb.StartedCh()
	submit() // fills the queue
	submit()
	serve.WaitFor(t, func() bool { return s.Stats().Queue.Depth == 2 })

	_, err := cl.Predict(ctx, serve.Request{Workload: "x", Device: "FakeGPU"})
	var bp *serve.StatusError
	if !errors.As(err, &bp) || bp.Status != http.StatusTooManyRequests || bp.Code != "queue_full" || bp.RetryAfter != serve.MinRetryAfter {
		t.Fatalf("over capacity: err = %v, want 429 queue_full with the %v floor hint", err, serve.MinRetryAfter)
	}
	if bp.Message != serve.ErrQueueFull.Message {
		t.Fatalf("over capacity: message %q, want the worker's own %q", bp.Message, serve.ErrQueueFull.Message)
	}

	fb.Release()
	wg.Wait()
	serve.AssertInvariant(t, s.Stats())
}

// TestHTTPTenantLimited429: a tenant that exhausts its share is shed
// with 429 tenant_limited while the queue still has room — and other
// tenants keep being admitted through the same queue.
func TestHTTPTenantLimited429(t *testing.T) {
	fb := serve.NewTestBackend()
	s, cl := newHTTPServer(t, serve.Config{Backend: fb, QueueDepth: 8, Workers: 1, TenantQueueCap: 1})
	ctx := context.Background()

	var wg sync.WaitGroup
	submit := func(tenant, workload string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if row, err := cl.Predict(ctx, serve.Request{Workload: workload, Device: "FakeGPU", Tenant: tenant}); err != nil || row.Error != "" {
				t.Errorf("admitted request (%s) failed: %v / %q", tenant, err, row.Error)
			}
		}()
	}
	submit("hog", "block") // parked in the worker
	<-fb.StartedCh()
	submit("hog", "block") // fills hog's share of 1
	serve.WaitFor(t, func() bool { return s.Stats().Queue.Depth == 1 })

	_, err := cl.Predict(ctx, serve.Request{Workload: "x", Device: "FakeGPU", Tenant: "hog"})
	var bp *serve.StatusError
	if !errors.As(err, &bp) || bp.Status != http.StatusTooManyRequests || bp.Code != "tenant_limited" || bp.RetryAfter <= 0 {
		t.Fatalf("hog over share: err = %v, want 429 tenant_limited with a hint", err)
	}
	// A different tenant is not collateral damage.
	submit("quiet", "x")
	serve.WaitFor(t, func() bool { return s.Stats().Queue.Depth == 2 })

	fb.Release()
	wg.Wait()
	st := s.Stats()
	serve.AssertInvariant(t, st)
	if st.Rejected.TenantLimited != 1 {
		t.Fatalf("tenant_limited rejects = %d, want 1", st.Rejected.TenantLimited)
	}
	if st.Tenants["hog"].Shed != 1 || st.Tenants["quiet"].Shed != 0 {
		t.Fatalf("shed ledger = hog %d / quiet %d, want 1/0", st.Tenants["hog"].Shed, st.Tenants["quiet"].Shed)
	}
}

// TestHTTPDrainingViaClient: a draining worker answers 503 with code
// "draining" — the client surfaces it with the Retry-After hint — and
// healthz flips to draining without erroring.
func TestHTTPDrainingViaClient(t *testing.T) {
	fb := serve.NewTestBackend()
	fb.Release()
	s, cl := newHTTPServer(t, serve.Config{Backend: fb, QueueDepth: 4, Workers: 1})
	ctx := context.Background()
	s.Drain()

	if h, err := cl.Healthz(ctx); err != nil || h.Status != "draining" {
		t.Fatalf("healthz while draining = %+v / %v, want status draining", h, err)
	}
	var dr *serve.StatusError
	if _, err := cl.Predict(ctx, serve.Request{Workload: "w", Device: "FakeGPU"}); !errors.As(err, &dr) ||
		dr.Status != http.StatusServiceUnavailable || dr.Code != "draining" || dr.RetryAfter <= 0 {
		t.Fatalf("predict while draining: err = %v, want 503 draining with a hint", err)
	}
	serve.AssertInvariant(t, s.Stats())
}
