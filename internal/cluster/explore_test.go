package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"dlrmperf"
	"dlrmperf/internal/client"
	"dlrmperf/internal/explore"
	"dlrmperf/internal/serve"
)

// clusterGrid is the coordinator sweep fixture: one workload over two
// devices at two widths, 4 unique configurations with no duplicates or
// rejections, so routing assertions are exact.
func clusterGrid() explore.Grid {
	return explore.Grid{
		Scenarios: []string{"dlrm-default"},
		Devices:   []string{"V100", "P100"},
		GPUs:      []int{1, 2},
		Batches:   []int64{512},
	}
}

// TestClusterExploreDeviceAffinity: a coordinator sweep routes each
// device's configurations to exactly one worker (rendezvous routing +
// device-major expansion), so pinned calibrations and graph structures
// are reused instead of duplicated across the cluster.
func TestClusterExploreDeviceAffinity(t *testing.T) {
	coord, workers := newTestCluster(t, 2, nil)
	rep, err := coord.RunExplore(context.Background(), clusterGrid())
	if err != nil {
		t.Fatal(err)
	}
	if rep.GridPoints != 4 || rep.Unique != 4 || rep.Rejected != 0 || rep.Failed != 0 {
		t.Fatalf("coverage = %d points / %d unique / %d rejected / %d failed, want 4/4/0/0: %+v",
			rep.GridPoints, rep.Unique, rep.Rejected, rep.Failed, rep.FailedSamples)
	}
	for _, dev := range []string{"V100", "P100"} {
		owners := 0
		for _, fw := range workers {
			fw.mu.Lock()
			_, has := fw.calibrated[dev]
			fw.mu.Unlock()
			if has {
				owners++
			}
		}
		if owners != 1 {
			t.Errorf("device %s calibrated on %d workers, want exactly 1", dev, owners)
		}
	}
	assertAggInvariant(t, coord.Stats(context.Background()))
}

// TestClusterExploreWarmRepeat: with the pass-through cache installed,
// a repeat sweep is answered entirely at the coordinator — hit rate
// 1.0, zero additional worker traffic.
func TestClusterExploreWarmRepeat(t *testing.T) {
	eng, err := dlrmperf.NewEngineWith(dlrmperf.EngineConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	coord, workers := newTestCluster(t, 2, eng)
	ctx := context.Background()

	cold, err := coord.RunExplore(ctx, clusterGrid())
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHits != 0 || cold.Failed != 0 {
		t.Fatalf("cold pass: %d hits, %d failed", cold.CacheHits, cold.Failed)
	}
	routed := workers[0].receivedCount() + workers[1].receivedCount()
	if routed != 4 {
		t.Fatalf("cold pass routed %d requests, want 4", routed)
	}

	warm, err := coord.RunExplore(ctx, clusterGrid())
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHitRate != 1 || warm.CacheHits != 4 {
		t.Errorf("warm hit rate = %v (%d hits), want 1.0 over 4", warm.CacheHitRate, warm.CacheHits)
	}
	if again := workers[0].receivedCount() + workers[1].receivedCount(); again != routed {
		t.Errorf("warm pass routed %d extra requests, want 0 (answered locally)", again-routed)
	}
	st := coord.Stats(ctx)
	assertAggInvariant(t, st)
	if st.Coordinator.LocalCacheHits != 4 {
		t.Errorf("local cache hits = %d, want 4", st.Coordinator.LocalCacheHits)
	}
}

// TestClusterExploreHTTP drives POST /v1/explore on the coordinator:
// 200 with full coverage, 400 grid_too_large over MaxGrid, 400
// bad_grid on a structurally empty grid, and 503 + Retry-After while
// draining.
func TestClusterExploreHTTP(t *testing.T) {
	coord, _ := newTestCluster(t, 2, nil)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	cl := client.New(ts.URL)
	ctx := context.Background()
	rep, err := cl.Explore(ctx, clusterGrid())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unique != 4 || rep.Failed != 0 {
		t.Fatalf("explore coverage %d unique / %d failed, want 4/0", rep.Unique, rep.Failed)
	}
	if len(rep.Frontier) == 0 {
		t.Error("report missing frontier")
	}

	var apiErr *serve.StatusError
	if _, err := cl.Explore(ctx, explore.Grid{Devices: []string{"V100"}}); !errors.As(err, &apiErr) ||
		apiErr.Status != http.StatusBadRequest || apiErr.Code != "bad_grid" {
		t.Errorf("empty grid: err = %v, want 400 bad_grid", err)
	}

	// MaxGrid+1 points: the size is checked before anything expands.
	oversize := explore.Grid{Scenarios: []string{"dlrm-default"}, Devices: []string{"V100"}, Batches: make([]int64, serve.MaxGrid+1)}
	if _, err := cl.Explore(ctx, oversize); !errors.As(err, &apiErr) ||
		apiErr.Status != http.StatusBadRequest || apiErr.Code != "grid_too_large" {
		t.Errorf("over-budget grid: err = %v, want 400 grid_too_large", err)
	}

	// 2^66 points in a 40 KB body: the size saturates rather than
	// wrap to 0, so it is refused unexpanded and counted nowhere.
	before := coord.Stats(ctx)
	const n = 2048
	overflow := explore.Grid{
		Scenarios: make([]string, n), Devices: make([]string, n), GPUs: make([]int, n),
		Comms: make([]string, n), Batches: make([]int64, n), Shared: make([]bool, n),
	}
	if _, err := cl.Explore(ctx, overflow); !errors.As(err, &apiErr) ||
		apiErr.Status != http.StatusBadRequest || apiErr.Code != "grid_too_large" {
		t.Errorf("grid of 2^66 points: err = %v, want 400 grid_too_large", err)
	}
	if after := coord.Stats(ctx); after.Requests != before.Requests || after.Coordinator.Received != before.Coordinator.Received {
		t.Errorf("refused grid moved requests %d -> %d, received %d -> %d",
			before.Requests, after.Requests, before.Coordinator.Received, after.Coordinator.Received)
	}

	coord.Drain(false)
	var dr *serve.StatusError
	if _, err := cl.Explore(ctx, clusterGrid()); !errors.As(err, &dr) ||
		dr.Status != http.StatusServiceUnavailable || dr.Code != "draining" || dr.RetryAfter <= 0 {
		t.Errorf("explore during drain: err = %v, want 503 draining with a Retry-After hint", err)
	}
}

// TestClusterExploreWorkerFailure: a grid over a device whose affine
// worker is dead still completes — failover retries the unit on the
// surviving worker and the report records zero failures.
func TestClusterExploreWorkerFailure(t *testing.T) {
	coord, workers := newTestCluster(t, 2, nil)
	workers[0].killed.Store(true)
	rep, err := coord.RunExplore(context.Background(), clusterGrid())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Predicted != 4 {
		t.Fatalf("with one dead worker: %d predicted / %d failed: %+v",
			rep.Predicted, rep.Failed, rep.FailedSamples)
	}
	if got := workers[1].receivedCount(); got != 4 {
		t.Errorf("surviving worker served %d units, want 4", got)
	}
}
