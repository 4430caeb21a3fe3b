package explore_test

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"dlrmperf"
	"dlrmperf/internal/explore"
	"dlrmperf/internal/serve"
)

// The sweep tests drive serve.Sweep — the one executor of a grid, behind
// the one-shot CLI and POST /v1/explore alike — through a server over a
// real low-fidelity engine. They live in the external test package
// because serve imports explore.

// fastServer puts a server in front of a low-fidelity engine over the
// given devices and drains it when the test ends.
func fastServer(t testing.TB, devices ...string) (*serve.Server, *dlrmperf.Engine) {
	t.Helper()
	cfg := dlrmperf.FastCalibConfig(17, 4)
	cfg.Devices = devices
	eng, err := dlrmperf.NewEngineWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Backend: eng})
	t.Cleanup(srv.Drain)
	return srv, eng
}

// TestSweepFixture runs the demo grid against a real low-fidelity
// engine twice: the first pass predicts every unique unit, the second
// is served entirely from the result cache — zero new predictions,
// cache hit rate 1.0 — and both passes report identical coverage and
// frontiers.
func TestSweepFixture(t *testing.T) {
	srv, eng := fastServer(t, dlrmperf.V100)
	g := explore.LoadGrid(t)
	cold, err := srv.RunExplore(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	explore.AssertCoverage(t, cold)
	if cold.Failed != 0 || cold.Predicted != cold.Unique {
		t.Fatalf("cold pass: %d predicted, %d failed (samples %+v)", cold.Predicted, cold.Failed, cold.FailedSamples)
	}
	hits0, misses0 := eng.CacheStats()
	warm, err := srv.RunExplore(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	explore.AssertCoverage(t, warm)
	hits1, misses1 := eng.CacheStats()
	if misses1 != misses0 {
		t.Errorf("warm pass computed %d new predictions, want 0", misses1-misses0)
	}
	if int(hits1-hits0) != warm.Unique {
		t.Errorf("warm pass hits = %d, want %d", hits1-hits0, warm.Unique)
	}
	if warm.CacheHitRate != 1 {
		t.Errorf("warm hit rate = %v, want 1", warm.CacheHitRate)
	}
	if len(warm.Frontier) == 0 || len(warm.Frontier) != len(cold.Frontier) {
		t.Errorf("frontiers differ: cold %d rows, warm %d", len(cold.Frontier), len(warm.Frontier))
	}
	for i := range warm.Frontier {
		if warm.Frontier[i].Fingerprint != cold.Frontier[i].Fingerprint {
			t.Errorf("frontier[%d] differs: %s vs %s", i, cold.Frontier[i].Fingerprint, warm.Frontier[i].Fingerprint)
		}
	}
	if warm.Assets == nil || warm.Assets.Class("results").Resident == 0 {
		t.Errorf("asset stats missing or empty: %+v", warm.Assets)
	}
}

// TestSweepUnknownDeviceFails: a device outside the engine's set is
// dispatched (explore does not know engine device sets) and lands in
// Failed with the facade's rejection, leaving the valid device's units
// untouched.
func TestSweepUnknownDeviceFails(t *testing.T) {
	srv, _ := fastServer(t, dlrmperf.V100)
	rep, err := srv.RunExplore(context.Background(), explore.Grid{
		Scenarios: []string{"dlrm-default"},
		Devices:   []string{"V100", "P100"}, // engine serves only V100
		Batches:   []int64{512},
	})
	if err != nil {
		t.Fatal(err)
	}
	explore.AssertCoverage(t, rep)
	if rep.Failed != 1 || rep.Predicted != 2 {
		t.Fatalf("predicted/failed = %d/%d, want 2/1: %+v", rep.Predicted, rep.Failed, rep.FailedSamples)
	}
	if !strings.Contains(rep.FailedSamples[0].Error, "not in engine device set") {
		t.Errorf("failure = %+v", rep.FailedSamples[0])
	}
}

// TestSweepIdempotentAcrossRegistry (testing/quick, mirroring
// sharding_property_test.go) pins the dedup contract over random grids
// drawn from the whole scenario registry: a second identical sweep
// performs ZERO new predictions — the engine's miss counter is
// unchanged and its hit delta equals the unique fingerprint count — and
// coverage stays exact. One shared warm engine keeps the property cheap
// enough to sample.
func TestSweepIdempotentAcrossRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("registry-wide sweeps are slow under -short")
	}
	srv, eng := fastServer(t, dlrmperf.V100)
	names := dlrmperf.Scenarios()
	gpuAxes := [][]int{{0}, {1, 2}, {0, 2}}
	batchAxes := [][]int64{{0}, {0, 1024}}

	f := func(pick uint32, gpuSel, batchSel uint8) bool {
		// Derive a non-empty scenario subset from the pick bits.
		var subset []string
		for i, name := range names {
			if pick&(1<<(uint(i)%32)) != 0 {
				subset = append(subset, name)
			}
		}
		if len(subset) == 0 {
			subset = []string{names[int(pick)%len(names)]}
		}
		if len(subset) > 4 {
			subset = subset[:4]
		}
		g := explore.Grid{
			Scenarios: subset,
			Devices:   []string{dlrmperf.V100},
			GPUs:      gpuAxes[int(gpuSel)%len(gpuAxes)],
			Batches:   batchAxes[int(batchSel)%len(batchAxes)],
		}
		first, err := srv.RunExplore(context.Background(), g)
		if err != nil {
			t.Logf("first sweep: %v", err)
			return false
		}
		hits0, misses0 := eng.CacheStats()
		second, err := srv.RunExplore(context.Background(), g)
		if err != nil {
			t.Logf("second sweep: %v", err)
			return false
		}
		hits1, misses1 := eng.CacheStats()
		ok := true
		if misses1 != misses0 {
			t.Logf("repeat sweep of %v computed %d new predictions", g, misses1-misses0)
			ok = false
		}
		if int(hits1-hits0) != second.Unique {
			t.Logf("repeat sweep hits %d != unique %d", hits1-hits0, second.Unique)
			ok = false
		}
		if second.CacheHitRate != 1 || second.Failed != 0 {
			t.Logf("repeat sweep hit rate %v, failed %d", second.CacheHitRate, second.Failed)
			ok = false
		}
		for _, rep := range []*explore.Report{first, second} {
			if got := rep.Unique + rep.Duplicates + rep.Rejected; got != rep.GridPoints {
				t.Logf("coverage identity broken: %+v", rep)
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
