package engine

import (
	"encoding/json"
	"hash/fnv"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dlrmperf/internal/graph"
	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/scenario"
	"dlrmperf/internal/tensor"
)

// profiledRuns lists the runs class's resident profiled runs of device.
func profiledRuns(e *Engine, device string) []string {
	var out []string
	for key := range e.store.class(classRun).snapshot() {
		if strings.HasPrefix(key, "run/"+device+"/") && strings.HasSuffix(key, "/true") {
			out = append(out, key)
		}
	}
	return out
}

// TestDLRMRunsReleasedOnceEveryDatabaseIsResident: a DLRM family's
// profiled runs are pooled by its own database and by the device's
// shared one, so they stay while either is missing — built later, or
// still being built — and are gone once both are resident, whichever
// order (or none) the builds ran in. Building the shared database
// builds every family's own with it, so after it alone no run is
// resident and a later per-family request is a hit. A measured run is
// never released.
func TestDLRMRunsReleasedOnceEveryDatabaseIsResident(t *testing.T) {
	families := models.DLRMNames()
	perFamily := len(tinyOptions(7).DLRMBatches)
	for _, order := range []string{"per-family then shared", "shared then per-family", "concurrently"} {
		t.Run(order, func(t *testing.T) {
			e := New(tinyOptions(7))
			if _, err := e.Run(hw.V100, models.NameDLRMDefault, 256); err != nil {
				t.Fatal(err)
			}
			family := func(i int) {
				if _, err := e.OverheadDB(hw.V100, families[i]); err != nil {
					t.Error(err)
				}
			}
			shared := func() {
				if _, err := e.SharedOverheadDB(hw.V100); err != nil {
					t.Error(err)
				}
			}
			switch order {
			case "per-family then shared":
				for i := range families {
					family(i)
					if got, want := len(profiledRuns(e, hw.V100)), (i+1)*perFamily; got != want {
						t.Fatalf("%d runs resident before the shared database, want %d", got, want)
					}
				}
				shared()
			case "shared then per-family":
				shared()
				if left := profiledRuns(e, hw.V100); len(left) != 0 {
					t.Fatalf("profiled runs resident after the shared database alone: %v", left)
				}
				resident := e.store.class(classOverheads).snapshot()
				for _, m := range families {
					if _, ok := resident["db/"+hw.V100+"/"+m]; !ok {
						t.Errorf("%s's own database not resident after the shared build", m)
					}
				}
				hits := e.AssetStats().Class("overheads").Hits
				for i := range families {
					family(i)
				}
				if got := e.AssetStats().Class("overheads").Hits - hits; got != uint64(len(families)) {
					t.Errorf("%d of %d per-family requests were overheads hits", got, len(families))
				}
			default:
				var wg sync.WaitGroup
				for i := range families {
					wg.Add(1)
					go func() { defer wg.Done(); family(i) }()
				}
				wg.Add(1)
				go func() { defer wg.Done(); shared() }()
				wg.Wait()
			}
			if left := profiledRuns(e, hw.V100); len(left) != 0 {
				t.Errorf("profiled runs still resident: %v", left)
			}
			runs := e.AssetStats().Class("runs")
			if runs.Resident != 1 || runs.Evictions != 0 {
				t.Errorf("runs class: %d resident, %d evictions; want the measured run alone and none", runs.Resident, runs.Evictions)
			}
			if runs.Misses != uint64(1+len(families)*perFamily) {
				t.Errorf("runs class: %d misses, want each run simulated once (%d)", runs.Misses, 1+len(families)*perFamily)
			}
		})
	}
}

// TestSharedFirstTouchExportsEveryDLRMDatabase: an engine that has
// served one shared request exports the shared database and every DLRM
// family's own, so a warm-started engine answers a per-family request
// for each family without simulating a run, as a cold engine does.
func TestSharedFirstTouchExportsEveryDLRMDatabase(t *testing.T) {
	src := New(tinyOptions(7))
	req := NewRequest(hw.V100, models.NameDLRMDefault, 512)
	req.Shared = true
	if res := src.Predict(req); res.Err != nil {
		t.Fatal(res.Err)
	}
	data, err := src.SaveAssets(hw.V100)
	if err != nil {
		t.Fatal(err)
	}
	var wire wireAssets
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Shared == nil || len(wire.Overheads) != len(models.DLRMNames()) {
		t.Fatalf("export holds shared %v and %d per-family databases, want it and %d", wire.Shared != nil, len(wire.Overheads), len(models.DLRMNames()))
	}
	warm := New(tinyOptions(7))
	if _, err := warm.LoadAssets(data); err != nil {
		t.Fatal(err)
	}
	for _, m := range models.DLRMNames() {
		req := NewRequest(hw.V100, m, 512)
		want := New(tinyOptions(7)).Predict(req)
		if want.Err != nil {
			t.Fatal(want.Err)
		}
		sameResult(t, m, warm.Predict(req), cached{want.Prediction, want.Multi, want.Plan})
	}
	if runs := warm.AssetStats().Class("runs"); runs.Misses != 0 {
		t.Errorf("warm-started engine simulated %d runs", runs.Misses)
	}
}

// TestCNNRunsReleasedWhenBuilt: a CNN family's runs feed its own
// database alone, so building it releases them at once.
func TestCNNRunsReleasedWhenBuilt(t *testing.T) {
	e := New(tinyOptions(7))
	if _, err := e.OverheadDB(hw.V100, models.NameResNet50); err != nil {
		t.Fatal(err)
	}
	if left := profiledRuns(e, hw.V100); len(left) != 0 {
		t.Errorf("profiled runs still resident: %v", left)
	}
	runs := e.AssetStats().Class("runs")
	if runs.Resident != 0 || runs.Bytes != 0 || runs.Evictions != 0 {
		t.Errorf("runs class: %d resident, %d bytes, %d evictions; want none", runs.Resident, runs.Bytes, runs.Evictions)
	}
}

// TestEvictedDatabaseRebuildsBitIdentically: once its runs are
// released, a database evicted from the overheads class rebuilds by
// simulating them again — runs misses — into the database the served
// golden digest pins.
func TestEvictedDatabaseRebuildsBitIdentically(t *testing.T) {
	e := withCaps(New(Options{Seed: 11, Workers: 2}), 512, 1, 512)
	for _, w := range []string{models.NameResNet50, models.NameTransformer} {
		if _, err := e.OverheadDB(hw.V100, w); err != nil {
			t.Fatal(err)
		}
	}
	simulated := e.AssetStats().Class("runs").Misses
	db, err := e.OverheadDB(hw.V100, models.NameResNet50)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.AssetStats().Class("runs").Misses-simulated, uint64(len(e.BatchesFor(models.NameResNet50))); got != want {
		t.Errorf("rebuild took %d runs misses, want %d", got, want)
	}
	raw, err := db.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(raw)
	if got, want := h.Sum64(), servedDigests["V100/"+models.NameResNet50]; got != want {
		t.Errorf("rebuilt database %#016x, golden %#016x", got, want)
	}
}

// viewShapes reads every output shape of g.
func viewShapes(g *graph.Graph) []tensor.Meta {
	var out []tensor.Meta
	for _, n := range g.Nodes {
		for _, id := range n.Outputs {
			out = append(out, g.Meta(id))
		}
	}
	return out
}

// TestConcurrentMissesReuseBindTables (run under -race): concurrent
// novel misses, whose plans bind views into recycled shape tables and
// release them, answer as a fresh engine does — over identical shards
// (one view released once), heterogeneous shards (one view each) and
// single-device CNNs. A view Engine.Model handed out is never recycled:
// it reads the same shapes after the burst.
func TestConcurrentMissesReuseBindTables(t *testing.T) {
	e, ref := New(tinyOptions(7)), New(tinyOptions(7))
	specs := []scenario.Spec{
		{Workload: models.NameDLRMDefault, Batch: 1024, Devices: 4},
		{Workload: models.NameDLRMMLPerf, Batch: 1024, Devices: 4},
		scenario.Single(models.NameResNet50, 32),
		scenario.Single(models.NameInceptionV3, 16),
	}
	for _, spec := range specs { // assets and structures resident
		if res := e.Predict(Request{Device: hw.V100, Scenario: spec}); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	held, err := e.Model(models.NameDLRMDefault, 1000)
	if err != nil {
		t.Fatal(err)
	}
	before := viewShapes(held.Graph)

	const rounds = 4
	got := make([]Result, rounds*len(specs))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := Request{Device: hw.V100, Scenario: specs[i%len(specs)]}
			req.Scenario.Batch += int64(4 * (i/len(specs) + 1))
			got[i] = e.Predict(req)
		}()
	}
	wg.Wait()
	for _, g := range got {
		if g.CacheHit {
			t.Fatalf("%s: a novel batch answered from the result cache", g.Request.Key())
		}
		want := ref.Predict(g.Request)
		if want.Err != nil {
			t.Fatal(want.Err)
		}
		sameResult(t, g.Request.Key(), g, cached{want.Prediction, want.Multi, want.Plan})
	}
	if after := viewShapes(held.Graph); held.Graph.BatchSize() != 1000 || !reflect.DeepEqual(after, before) {
		t.Error("the view Engine.Model returned changed under a burst of misses: it was recycled")
	}
}
