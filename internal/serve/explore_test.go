package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
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

// overflowGrid has six axes of 2,048 values: a 40 KB body whose cross
// product, 2^66, wraps a 64-bit int to 0. Its size saturates instead,
// so the MaxGrid bound refuses it before Expand starts a loop that
// would never end.
func overflowGrid() explore.Grid {
	const n = 2048
	return explore.Grid{
		Scenarios: make([]string, n), Devices: make([]string, n), GPUs: make([]int, n),
		Comms: make([]string, n), Batches: make([]int64, n), Shared: make([]bool, n),
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
	if _, err := s.RunExplore(context.Background(), overflowGrid()); !errors.As(err, &tooLarge) || tooLarge.Size != math.MaxInt {
		t.Fatalf("grid of 2^66 points: err = %v, want GridTooLargeError of size math.MaxInt", err)
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
	overflow, err := json.Marshal(overflowGrid())
	if err != nil {
		t.Fatal(err)
	}
	httpErr = HTTPError{}
	resp, body = post(string(overflow))
	if json.Unmarshal(body, &httpErr); resp.StatusCode != http.StatusBadRequest || httpErr.Code != "grid_too_large" {
		t.Errorf("grid of 2^66 points (%d bytes): status %d code %q, want 400 grid_too_large", len(overflow), resp.StatusCode, httpErr.Code)
	}
	st := s.Stats()
	assertInvariant(t, st)
	if st.Requests != before || st.Accounted() != before {
		t.Errorf("refused grids moved requests %d -> %d, accounted -> %d", before, st.Requests, st.Accounted())
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

// FuzzGridDecode fuzzes the POST /v1/explore body, decoded as the
// handler decodes it, with two oracles. Sweep either refuses the grid
// with a GridTooLargeError naming its size, or visits exactly Size()
// points, no more than MaxGrid, with exact coverage; it refuses
// nothing else but a grid of size 0. And decode, encode, decode is a
// fixed point that keeps the grid's size. The checked-in corpus
// (testdata/fuzz/FuzzGridDecode) holds a grid whose size overflows an
// int, one of MaxGrid+1 points, one of empty axes and one of duplicate
// points.
func FuzzGridDecode(f *testing.F) {
	fixture, err := json.Marshal(exploreGrid())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	run := func(_ context.Context, reqs []Request) []Result {
		out := make([]Result, len(reqs))
		for i, r := range reqs {
			out[i] = Result{Request: r, E2EUs: float64(1 + i%7)}
		}
		return out
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var g explore.Grid
		if json.Unmarshal(data, &g) != nil {
			return
		}
		size := g.Size()
		rep, err := Sweep(context.Background(), g, run)
		var tooLarge *GridTooLargeError
		switch {
		case errors.As(err, &tooLarge):
			if size <= MaxGrid || tooLarge.Size != size {
				t.Fatalf("refused as %v, size %d", err, size)
			}
		case err != nil:
			if size != 0 {
				t.Fatalf("grid of %d points refused: %v", size, err)
			}
		case rep.GridPoints != size || size > MaxGrid:
			t.Fatalf("sweep visited %d points of a %d-point grid", rep.GridPoints, size)
		case rep.Unique+rep.Duplicates+rep.Rejected != size || rep.Predicted != rep.Unique:
			t.Fatalf("coverage %d unique + %d duplicates + %d rejected, %d predicted, of %d points",
				rep.Unique, rep.Duplicates, rep.Rejected, rep.Predicted, size)
		}

		raw, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("decoded %+v, Marshal refused it: %v", g, err)
		}
		var again explore.Grid
		if err := json.Unmarshal(raw, &again); err != nil {
			t.Fatalf("Marshal wrote %s, which does not decode: %v", raw, err)
		}
		raw2, err := json.Marshal(again)
		if err != nil || !bytes.Equal(raw2, raw) {
			t.Fatalf("second Marshal %s (err %v), first %s", raw2, err, raw)
		}
		if again.Size() != size {
			t.Fatalf("size %d after a round trip, %d before", again.Size(), size)
		}
	})
}
