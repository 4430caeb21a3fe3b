package cluster

import (
	"context"
	"net/http/httptest"
	"testing"

	"dlrmperf"
	"dlrmperf/internal/client"
	"dlrmperf/internal/explore"
	"dlrmperf/internal/scenario"
	"dlrmperf/internal/serve"
)

// TestExecutionWidthBounded: a request wider than scenario.MaxDevices
// is refused at validation wherever it lands, before any calibration
// or per-device allocation. A worker over a real engine tallies it
// under rejected.validation, a coordinator in front of that worker
// hands back the worker's verdict with the invariant intact, and a
// sweep counts the over-bound grid point under rejected.
func TestExecutionWidthBounded(t *testing.T) {
	cfg := dlrmperf.FastCalibConfig(7, 1)
	cfg.Devices = []string{dlrmperf.V100}
	eng, err := dlrmperf.NewEngineWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Backend: eng})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Drain() })
	reg := NewRegistry(0)
	reg.Register(ts.URL, ts.URL)
	cache, err := dlrmperf.NewEngineWith(dlrmperf.EngineConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	coord := New(Config{Registry: reg, Cache: cache})
	ctx := context.Background()
	wide := serve.Request{Scenario: "cnn-resnet50", Device: dlrmperf.V100,
		Batch: 4 * scenario.MaxDevices, GPUs: scenario.MaxDevices + 1}

	// At the worker.
	if row, err := client.New(ts.URL).Predict(ctx, wide); err != nil || row.Error == "" {
		t.Fatalf("worker answered %d devices with %+v, %v; want a validation error row", wide.GPUs, row, err)
	}
	st := srv.Stats()
	if st.Rejected.Validation != 1 || st.Accounted() != st.Requests {
		t.Fatalf("worker stats: rejected.validation %d, accounted %d of %d requests; want 1 and all",
			st.Rejected.Validation, st.Accounted(), st.Requests)
	}
	if n := eng.CalibrationRuns(dlrmperf.V100); n != 0 {
		t.Fatalf("an over-bound request calibrated the device %d times", n)
	}

	// Through the coordinator: the worker owns the verdict.
	before := coord.Stats(ctx)
	if row, err := coord.PredictOne(ctx, wide, false); err != nil || row.Error == "" || row.CacheHit {
		t.Fatalf("coordinator answered %+v, %v; want the worker's error row", row, err)
	}
	after := coord.Stats(ctx)
	if after.Rejected.Validation != before.Rejected.Validation+1 {
		t.Fatalf("rejected.validation %d -> %d, want +1", before.Rejected.Validation, after.Rejected.Validation)
	}
	assertAggInvariant(t, after)

	// A sweep never dispatches it.
	rep, err := coord.RunExplore(ctx, explore.Grid{
		Scenarios: []string{"cnn-resnet50"},
		Devices:   []string{dlrmperf.V100},
		GPUs:      []int{scenario.MaxDevices + 1},
		Batches:   []int64{wide.Batch},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.GridPoints != 1 || rep.Rejected != 1 || rep.Unique != 0 {
		t.Fatalf("sweep = %d points / %d rejected / %d unique, want 1/1/0", rep.GridPoints, rep.Rejected, rep.Unique)
	}
	if st := coord.Stats(ctx); st.Requests != after.Requests {
		t.Fatalf("sweep dispatched its rejected point: requests %d -> %d", after.Requests, st.Requests)
	}
}
