package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dlrmperf/internal/explore"
)

// exploreGrid mirrors the checked-in demo fixture against the fake
// backend's single device: 16 points = 8 unique + 4 duplicates (comm ""
// and "nvlink" alias at width 2) + 4 rejected (comm on a single-device
// point).
func exploreGrid() explore.Grid {
	return explore.Grid{
		Scenarios: []string{"dlrm-default", "dlrm-ddp"},
		Devices:   []string{"FakeGPU"},
		GPUs:      []int{1, 2},
		Comms:     []string{"", "nvlink"},
		Batches:   []int64{512, 1024},
	}
}

// oversizeGrid expands to exactly MaxGrid+1 points. Sweep checks the
// size before it expands anything, so refusing it costs nothing.
func oversizeGrid() explore.Grid {
	return explore.Grid{
		Scenarios: []string{"dlrm-default"},
		Devices:   []string{"FakeGPU"},
		Batches:   make([]int64, MaxGrid+1),
	}
}

// TestRunExploreAccounting: the sweep rides the admission pipeline —
// every unique unit becomes exactly one /stats-counted request — while
// scenario-level rejections stay explore-side, and a repeat sweep is
// served entirely from the backend cache.
func TestRunExploreAccounting(t *testing.T) {
	fb := newFakeBackend()
	s := New(Config{Backend: fb, QueueDepth: 4, Workers: 2})
	defer s.Drain()

	cold, err := s.RunExplore(context.Background(), exploreGrid())
	if err != nil {
		t.Fatal(err)
	}
	if cold.GridPoints != 16 || cold.Unique != 8 || cold.Duplicates != 4 || cold.Rejected != 4 {
		t.Fatalf("coverage = %d/%d/%d/%d, want 16/8/4/4",
			cold.GridPoints, cold.Unique, cold.Duplicates, cold.Rejected)
	}
	if cold.Failed != 0 || cold.Predicted != 8 {
		t.Fatalf("cold predicted/failed = %d/%d: %+v", cold.Predicted, cold.Failed, cold.FailedSamples)
	}
	st := s.Stats()
	assertInvariant(t, st)
	if st.Requests != 8 {
		t.Errorf("server requests = %d, want 8 (one per unique unit)", st.Requests)
	}

	warm, err := s.RunExplore(context.Background(), exploreGrid())
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHitRate != 1 || warm.CacheHits != 8 {
		t.Errorf("warm hit rate = %v (%d hits), want 1.0 over 8", warm.CacheHitRate, warm.CacheHits)
	}
	st = s.Stats()
	assertInvariant(t, st)
	if st.Requests != 16 {
		t.Errorf("server requests after repeat = %d, want 16", st.Requests)
	}
}

// TestRunExploreLimits pins the two refusal paths: an over-budget
// expansion (MaxGrid counts expanded points, not wire bytes) and a
// draining server.
func TestRunExploreLimits(t *testing.T) {
	fb := newFakeBackend()
	s := New(Config{Backend: fb, QueueDepth: 4, Workers: 2})
	var tooLarge *GridTooLargeError
	if _, err := s.RunExplore(context.Background(), oversizeGrid()); !errors.As(err, &tooLarge) {
		t.Fatalf("grid over MaxGrid: err = %v, want GridTooLargeError", err)
	} else if tooLarge.Size != MaxGrid+1 || tooLarge.Max != MaxGrid {
		t.Errorf("reported size/max = %d/%d, want %d/%d", tooLarge.Size, tooLarge.Max, MaxGrid+1, MaxGrid)
	}
	s.Drain()
	if _, err := s.RunExplore(context.Background(), exploreGrid()); !errors.Is(err, ErrDraining) {
		t.Fatalf("explore during drain: err = %v, want ErrDraining", err)
	}
	assertInvariant(t, s.Stats())
}

// TestHTTPExplore drives POST /v1/explore end to end over httptest:
// 200 with a full report, 400 bad_grid on a structurally empty grid,
// 400 grid_too_large over the expansion budget, and /stats keeps its
// invariant with the sweep's requests counted.
func TestHTTPExplore(t *testing.T) {
	fb := newFakeBackend()
	s := New(Config{Backend: fb, QueueDepth: 4, Workers: 2})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/explore", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	gridJSON, err := json.Marshal(exploreGrid())
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(string(gridJSON))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore status = %d: %s", resp.StatusCode, body)
	}
	var rep explore.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.GridPoints != 16 || rep.Unique != 8 || rep.Rejected != 4 {
		t.Errorf("report coverage = %d/%d/%d, want 16/8/4", rep.GridPoints, rep.Unique, rep.Rejected)
	}
	if len(rep.Frontier) == 0 || len(rep.Best) == 0 {
		t.Errorf("report missing frontier or best table: %+v", rep)
	}

	var httpErr HTTPError
	resp, body = post(`{"devices": ["FakeGPU"]}`)
	if json.Unmarshal(body, &httpErr); resp.StatusCode != http.StatusBadRequest || httpErr.Code != "bad_grid" {
		t.Errorf("empty grid: status %d code %q, want 400 bad_grid", resp.StatusCode, httpErr.Code)
	}
	resp, body = post(`{"scenarios": ["dlrm-default"], "devices": ["FakeGPU"], "batches": "not-a-list"}`)
	if json.Unmarshal(body, &httpErr); resp.StatusCode != http.StatusBadRequest || httpErr.Code != "bad_request" {
		t.Errorf("malformed batch axis: status %d code %q, want 400 bad_request", resp.StatusCode, httpErr.Code)
	}

	before := s.Stats().Requests
	oversize, err := json.Marshal(oversizeGrid())
	if err != nil {
		t.Fatal(err)
	}
	httpErr = HTTPError{}
	resp, body = post(string(oversize))
	if json.Unmarshal(body, &httpErr); resp.StatusCode != http.StatusBadRequest || httpErr.Code != "grid_too_large" {
		t.Errorf("over-budget grid: status %d code %q, want 400 grid_too_large", resp.StatusCode, httpErr.Code)
	}
	st := s.Stats()
	assertInvariant(t, st)
	if st.Requests != before {
		t.Errorf("refused grid moved requests %d -> %d", before, st.Requests)
	}
}

// TestHTTPExploreDraining: a draining server turns explores away with
// 503 + Retry-After before any expansion work.
func TestHTTPExploreDraining(t *testing.T) {
	fb := newFakeBackend()
	s := New(Config{Backend: fb, QueueDepth: 4, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Drain()

	gridJSON, _ := json.Marshal(exploreGrid())
	resp, err := http.Post(ts.URL+"/v1/explore", "application/json", bytes.NewReader(gridJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("explore during drain: status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After")
	}
}
