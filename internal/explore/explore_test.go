package explore

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// LoadGrid reads the checked-in demo grid fixture. It is exported for
// the external sweep tests (package explore_test).
func LoadGrid(t testing.TB) Grid {
	t.Helper()
	data, err := os.ReadFile("testdata/grid.json")
	if err != nil {
		t.Fatal(err)
	}
	var g Grid
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	return g
}

// AssertCoverage checks the exact-coverage identity on a report
// (exported, like LoadGrid, for the sweep tests).
func AssertCoverage(t *testing.T, rep *Report) {
	t.Helper()
	if got := rep.Unique + rep.Duplicates + rep.Rejected; got != rep.GridPoints {
		t.Errorf("coverage identity broken: %d unique + %d dup + %d rejected = %d, grid %d",
			rep.Unique, rep.Duplicates, rep.Rejected, got, rep.GridPoints)
	}
}

// TestExpandFixtureCoverage pins the demo grid's expansion: 16 points,
// 8 unique (comm "" and "nvlink" are one identity at width 2), 4
// duplicates, 4 rejected (comm on a single-device point), device-major
// unit order, and exact coverage.
func TestExpandFixtureCoverage(t *testing.T) {
	ex, err := Expand(LoadGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Total != 16 || len(ex.Unique) != 8 || ex.Duplicates() != 4 || ex.Rejected != 4 {
		t.Fatalf("expansion = %d total / %d unique / %d dup / %d rejected, want 16/8/4/4",
			ex.Total, len(ex.Unique), ex.Duplicates(), ex.Rejected)
	}
	dups := 0
	for _, u := range ex.Unique {
		dups += u.Dups
	}
	if dups != ex.Duplicates() {
		t.Errorf("per-unit dups sum %d != %d", dups, ex.Duplicates())
	}
	for _, r := range ex.RejectedSamples {
		if !strings.Contains(r.Error, "single-device") {
			t.Errorf("unexpected rejection for %+v: %s", r.Point, r.Error)
		}
	}
	// Device-major order: each device's units are contiguous.
	lastDev, seen := "", map[string]bool{}
	for _, u := range ex.Unique {
		if u.Point.Device != lastDev {
			if seen[u.Point.Device] {
				t.Fatalf("device %s units not contiguous", u.Point.Device)
			}
			seen[u.Point.Device] = true
			lastDev = u.Point.Device
		}
	}
}

// TestExpandErrors: structurally empty grids are the only hard errors;
// an unknown scenario name is a counted rejection, not a failure.
func TestExpandErrors(t *testing.T) {
	if _, err := Expand(Grid{Devices: []string{"V100"}}); err == nil {
		t.Error("no-scenario grid did not error")
	}
	if _, err := Expand(Grid{Scenarios: []string{"dlrm-default"}}); err == nil {
		t.Error("no-device grid did not error")
	}
	ex, err := Expand(Grid{Scenarios: []string{"no-such-scenario"}, Devices: []string{"V100"}})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Rejected != 1 || len(ex.Unique) != 0 {
		t.Errorf("unknown scenario: %d rejected / %d unique, want 1/0", ex.Rejected, len(ex.Unique))
	}
}

// TestAggregatorAccounting drives the aggregator with synthetic
// outcomes and checks the failure sampling, hit-rate, and top-N
// bookkeeping without an engine.
func TestAggregatorAccounting(t *testing.T) {
	ex, err := Expand(Grid{
		Scenarios: []string{"dlrm-default"},
		Devices:   []string{"V100"},
		Batches:   []int64{512, 1024, 2048},
		Top:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Unique) != 3 {
		t.Fatalf("unique = %d, want 3", len(ex.Unique))
	}
	agg := NewAggregator(ex)
	agg.Add(0, Outcome{Err: "boom"})
	agg.Add(1, Outcome{E2EUs: 1000, CacheHit: true, ScalingEfficiency: 1})
	agg.Add(2, Outcome{E2EUs: 1500, ScalingEfficiency: 1})
	rep := agg.Report(0)
	AssertCoverage(t, rep)
	if rep.Predicted != 3 || rep.Failed != 1 || rep.CacheHits != 1 {
		t.Errorf("predicted/failed/hits = %d/%d/%d, want 3/1/1", rep.Predicted, rep.Failed, rep.CacheHits)
	}
	if len(rep.FailedSamples) != 1 || rep.FailedSamples[0].Error != "boom" {
		t.Errorf("failed samples = %+v", rep.FailedSamples)
	}
	if want := 1.0 / 3; rep.CacheHitRate != want {
		t.Errorf("hit rate = %v, want %v", rep.CacheHitRate, want)
	}
	// Top is bounded at Grid.Top and ordered by throughput:
	// batch 2048 / 1500us beats batch 1024 / 1000us.
	if len(rep.Top) != 2 || rep.Top[0].Batch != 2048 || rep.Top[1].Batch != 1024 {
		t.Errorf("top = %+v", rep.Top)
	}
	if best := rep.Best["DLRM_default"]; best.Batch != 2048 {
		t.Errorf("best = %+v, want the batch-2048 row", best)
	}
}
