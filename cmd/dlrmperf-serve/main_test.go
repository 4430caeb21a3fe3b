package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dlrmperf"
	"dlrmperf/internal/explore"
	"dlrmperf/internal/serve"
)

// tinyEngineConfig keeps the serve tests fast: the driver's -fast-calib
// fidelity (eighth-size sweeps, a single tiny network per ML-based
// kernel family), so calibration takes fractions of a second instead of
// minutes.
func tinyEngineConfig() dlrmperf.EngineConfig {
	return engineConfig(17, 4, true)
}

// wireAssets mirrors the engine's serialized asset schema for
// inspection in tests.
type wireAssets struct {
	Device    string                     `json:"device"`
	Overheads map[string]json.RawMessage `json:"overheads"`
}

// TestWarmStartServeResaveRoundTrip is the -save-assets contract: a
// warm-started run (zero calibrations) that collects a *new* overhead
// DB must still re-save assets for every device that served, and the
// re-saved file must carry the new DB. The pre-fix driver keyed the
// save loop on calibration counts and silently saved nothing here.
func TestWarmStartServeResaveRoundTrip(t *testing.T) {
	// Source engine: calibrate V100 once (tiny options) and export a
	// registry-only asset file — no overhead DBs collected yet.
	src, err := dlrmperf.NewEngineWith(tinyEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	assets, err := src.SaveAssets(dlrmperf.V100)
	if err != nil {
		t.Fatal(err)
	}
	var exported wireAssets
	if err := json.Unmarshal(assets, &exported); err != nil {
		t.Fatal(err)
	}
	if len(exported.Overheads) != 0 {
		t.Fatalf("source assets already carry overhead DBs %v; the round trip needs a fresh one", exported.Overheads)
	}

	dir := t.TempDir()
	assetPath := filepath.Join(dir, "v100.json")
	if err := os.WriteFile(assetPath, assets, 0o644); err != nil {
		t.Fatal(err)
	}

	// Warm-started serve: collects the DLRM_default overhead DB on the
	// fly and re-saves.
	reqs := []serve.Request{
		{Workload: "DLRM_default", Batch: 512, Device: dlrmperf.V100},
		{Workload: "DLRM_default", Batch: 512, Device: dlrmperf.V100},
	}
	saveDir := filepath.Join(dir, "resave")
	rep, err := serveOnce(serveConfig{
		Engine:     tinyEngineConfig(),
		AssetPaths: []string{assetPath},
		SaveAssets: saveDir,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("warm-started serve failed %d requests: %+v", rep.Failed, rep.Results)
	}
	if len(rep.Stats.Calibrations) != 0 {
		t.Fatalf("warm-started serve calibrated: %v", rep.Stats.Calibrations)
	}
	if rep.Stats.Cache.Hits+rep.Stats.Cache.Misses != uint64(rep.Requests) {
		t.Errorf("cache invariant broken: %d+%d != %d requests",
			rep.Stats.Cache.Hits, rep.Stats.Cache.Misses, rep.Requests)
	}
	if got := rep.Stats.Assets.Class("calibrations").Resident; got != 1 {
		t.Errorf("assets report %d resident calibrations, want 1", got)
	}

	resaved, err := os.ReadFile(filepath.Join(saveDir, "V100.json"))
	if err != nil {
		t.Fatalf("warm-started device was not re-saved: %v", err)
	}
	var round wireAssets
	if err := json.Unmarshal(resaved, &round); err != nil {
		t.Fatal(err)
	}
	if round.Device != dlrmperf.V100 {
		t.Errorf("re-saved device = %q", round.Device)
	}
	if _, ok := round.Overheads["DLRM_default"]; !ok {
		t.Fatalf("re-saved assets dropped the newly collected DB; have %v", round.Overheads)
	}

	// Serving again from the re-saved assets reproduces the prediction
	// bit-for-bit without calibrating or re-profiling.
	rep2, err := serveOnce(serveConfig{
		Engine:     tinyEngineConfig(),
		AssetPaths: []string{filepath.Join(saveDir, "V100.json")},
	}, reqs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Failed != 0 || len(rep2.Stats.Calibrations) != 0 {
		t.Fatalf("second warm start recalibrated or failed: %+v", rep2)
	}
	if rep.Results[0].E2EUs != rep2.Results[0].E2EUs {
		t.Errorf("round-tripped prediction differs: %v vs %v",
			rep.Results[0].E2EUs, rep2.Results[0].E2EUs)
	}
}

// TestServeReportInvariants covers the cold path on a tiny engine: the
// stats block's cache counters account for every request served,
// rejected requests stay out of them, and its assets block carries all
// five classes. The document is exactly the batch report plus that one
// block.
func TestServeReportInvariants(t *testing.T) {
	reqs := []serve.Request{
		{Workload: "DLRM_default", Batch: 512, Device: dlrmperf.V100},
		{Workload: "DLRM_default", Batch: 512, Device: dlrmperf.V100}, // duplicate: cache hit
		{Workload: "no_such_model", Batch: 512, Device: dlrmperf.V100},
		// comm on a single-device spec: rejected at engine validation.
		{Workload: "DLRM_default", Batch: 512, Device: dlrmperf.V100, Comm: "pcie"},
	}
	rep, err := serveOnce(serveConfig{Engine: tinyEngineConfig()}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 2 {
		t.Fatalf("failed = %d, want 2 (unknown workload + comm on width 1): %+v", rep.Failed, rep.Results)
	}
	// The unknown workload passes structural validation and fails in
	// compute (a miss); the comm-on-width-1 request is rejected at
	// validation and kept out of the hit/miss counters: every request
	// dispatched is accounted, hits+misses+rejected == requests.
	st := rep.Stats
	if st.Cache.Hits != 1 || st.Cache.Misses != 2 || st.Rejected.Validation != 1 {
		t.Errorf("cache = %d/%d/%d hit/miss/rejected, want 1/2/1",
			st.Cache.Hits, st.Cache.Misses, st.Rejected.Validation)
	}
	if st.Accounted() != uint64(rep.Requests) || st.Requests != uint64(rep.Requests) {
		t.Errorf("cache invariant broken: accounted %d, stats requests %d, batch requests %d",
			st.Accounted(), st.Requests, rep.Requests)
	}
	// The rejected block separates the walls: a validation reject here,
	// no queue-full or draining rejections in a blocking one-shot run.
	if st.Rejected.Validation != 1 || st.Rejected.QueueFull != 0 || st.Rejected.Draining != 0 {
		t.Errorf("rejected = %+v, want validation 1, queue-full 0, draining 0", st.Rejected)
	}
	want := map[string]bool{"calibrations": true, "runs": true, "overheads": true, "graphs": true, "results": true}
	for _, c := range st.Assets.Classes {
		delete(want, c.Class)
	}
	if len(want) != 0 {
		t.Errorf("assets block missing classes: %v", want)
	}
	if st.Assets.TotalBytes <= 0 {
		t.Errorf("assets total bytes = %d, want > 0", st.Assets.TotalBytes)
	}
	if st.Calibrations[dlrmperf.V100] != 1 {
		t.Errorf("calibrations = %v, want V100 once", st.Calibrations)
	}

	assertBatchDocument(t, rep)
}

// assertBatchDocument checks a one-shot batch document has exactly the
// batch report's keys plus the stats block.
func assertBatchDocument(t *testing.T, doc *oneShot) {
	t.Helper()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"results", "requests", "failed", "elapsed_ms", "stats"} {
		delete(keys, k)
	}
	if len(keys) != 0 {
		t.Errorf("one-shot document has keys beyond the batch report and stats: %v", keys)
	}
}

// TestOneShotRequestArray: a JSON array on -in is a request batch,
// served exactly as serveOnce serves it and written as the same
// document.
func TestOneShotRequestArray(t *testing.T) {
	doc, err := runOneShot(serveConfig{Engine: tinyEngineConfig()}, "testdata/requests.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := doc.(*oneShot)
	if !ok {
		t.Fatalf("request array produced a %T, want *oneShot", doc)
	}
	if rep.Requests != 3 || rep.Failed != 0 || rep.Stats.Cache.Hits != 1 {
		t.Errorf("batch = %d requests, %d failed, %d hits; want 3, 0, 1 (the fixture repeats a row)",
			rep.Requests, rep.Failed, rep.Stats.Cache.Hits)
	}
	assertBatchDocument(t, rep)
}

// TestOneShotExploreGrid: a JSON object on -in is an explore grid,
// swept through the server's admission pipeline and written as the
// explore.Report POST /v1/explore returns. The checked-in fixture's coverage is pinned: 16 points = 8
// unique + 4 duplicates + 4 rejected.
func TestOneShotExploreGrid(t *testing.T) {
	const fixture = "../../internal/explore/testdata/grid.json"
	doc, err := runOneShot(serveConfig{Engine: tinyEngineConfig()}, fixture)
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := doc.(*exploreShot)
	if !ok {
		t.Fatalf("grid produced a %T, want *exploreShot", doc)
	}
	if rep.GridPoints != 16 || rep.Unique != 8 || rep.Duplicates != 4 || rep.Rejected != 4 {
		t.Fatalf("coverage = %d/%d/%d/%d, want 16/8/4/4", rep.GridPoints, rep.Unique, rep.Duplicates, rep.Rejected)
	}
	if rep.Failed != 0 || rep.Predicted != 8 {
		t.Fatalf("predicted/failed = %d/%d: %+v", rep.Predicted, rep.Failed, rep.FailedSamples)
	}
	if len(rep.Frontier) == 0 || len(rep.Best) == 0 {
		t.Errorf("report missing frontier or best-per-workload table")
	}
	got, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(rep.Report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("one-shot explore document is not the explore.Report:\n%s\n%s", got, want)
	}

	// The one-shot is POST /v1/explore's executor: Server.RunExplore on
	// a fresh engine with the same config reports the same document,
	// timing aside.
	data, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	var g explore.Grid
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	eng, err := dlrmperf.NewEngineWith(tinyEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(serveConfig{}, eng)
	direct, err := srv.RunExplore(context.Background(), g)
	srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := untimed(t, rep.Report), untimed(t, direct); a != b {
		t.Errorf("one-shot report differs from Server.RunExplore:\n%s\n%s", a, b)
	}
}

// untimed renders an explore report without its three wall-clock
// fields (elapsed_ms, configs_per_sec, predictions_per_sec).
func untimed(t *testing.T, rep *explore.Report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	delete(fields, "elapsed_ms")
	delete(fields, "configs_per_sec")
	delete(fields, "predictions_per_sec")
	out, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// gridFile writes g as a one-shot -in document.
func gridFile(t *testing.T, g explore.Grid) string {
	t.Helper()
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOneShotExploreTimeout: the grid's timeout_ms bounds every unit the
// one-shot dispatches, as it does on POST /v1/explore. A cold device
// calibrates for far longer than 1 ms, so every unit fails with the
// deadline error.
func TestOneShotExploreTimeout(t *testing.T) {
	path := gridFile(t, explore.Grid{
		Scenarios: []string{"dlrm-default"},
		Devices:   []string{dlrmperf.V100},
		Batches:   []int64{512, 1024},
		TimeoutMs: 1,
	})
	doc, err := runOneShot(serveConfig{Engine: tinyEngineConfig()}, path)
	if err != nil {
		t.Fatal(err)
	}
	rep := doc.(*exploreShot)
	if rep.Unique != 2 || rep.Predicted != 2 || rep.Failed != 2 {
		t.Fatalf("unique/predicted/failed = %d/%d/%d, want 2/2/2", rep.Unique, rep.Predicted, rep.Failed)
	}
	for _, f := range rep.FailedSamples {
		if !strings.Contains(f.Error, context.DeadlineExceeded.Error()) {
			t.Errorf("unit %+v failed with %q, want a deadline error", f.Point, f.Error)
		}
	}
}

// TestOneShotExploreGridTooLarge: a grid over serve.MaxGrid is refused
// by its size, as POST /v1/explore refuses it — a GridTooLargeError and
// no document, and nothing re-saved.
func TestOneShotExploreGridTooLarge(t *testing.T) {
	path := gridFile(t, explore.Grid{
		Scenarios: []string{"dlrm-default"},
		Devices:   []string{dlrmperf.V100},
		Batches:   make([]int64, serve.MaxGrid+1),
	})
	saveDir := filepath.Join(t.TempDir(), "assets")
	doc, err := runOneShot(serveConfig{Engine: tinyEngineConfig(), SaveAssets: saveDir}, path)
	var tooLarge *serve.GridTooLargeError
	if !errors.As(err, &tooLarge) {
		t.Fatalf("err = %v, want *serve.GridTooLargeError", err)
	}
	if tooLarge.Size != serve.MaxGrid+1 || tooLarge.Max != serve.MaxGrid {
		t.Errorf("reported size/max = %d/%d, want %d/%d", tooLarge.Size, tooLarge.Max, serve.MaxGrid+1, serve.MaxGrid)
	}
	if doc != nil {
		t.Errorf("refused grid produced a document: %+v", doc)
	}
	if _, err := os.Stat(saveDir); !os.IsNotExist(err) {
		t.Errorf("refused grid re-saved assets (stat: %v)", err)
	}
}

// TestOneShotBadInput: a missing file, a structurally empty grid, and a
// document that is neither an array nor an object each fail without a
// document.
func TestOneShotBadInput(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"missing": filepath.Join(dir, "no-such-file.json"),
	}
	for name, body := range map[string]string{
		"empty-grid": `{"devices": ["V100"]}`,
		"no-axes":    `{}`,
		"string":     `"requests.json"`,
		"number":     `42`,
		"blank":      "  \n",
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		cases[name] = path
	}
	for name, path := range cases {
		if doc, err := runOneShot(serveConfig{Engine: tinyEngineConfig()}, path); err == nil || doc != nil {
			t.Errorf("%s: doc %v, err %v; want no document and an error", name, doc, err)
		}
	}
}

// TestSaveAssetsFailurePropagates is the exit-code bugfix: when
// -save-assets cannot write, serveOnce must return BOTH the report —
// with a structured save_assets_failed error block, so the rows that
// served are not lost — and a non-nil error that the driver turns into
// a non-zero exit.
func TestSaveAssetsFailurePropagates(t *testing.T) {
	dir := t.TempDir()
	// A regular file where the save directory should go: MkdirAll fails.
	blocker := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	reqs := []serve.Request{{Workload: "DLRM_default", Batch: 512, Device: dlrmperf.V100}}
	rep, err := serveOnce(serveConfig{
		Engine:     tinyEngineConfig(),
		SaveAssets: blocker,
	}, reqs)
	if err == nil {
		t.Fatal("save-assets failure did not propagate an error")
	}
	if !strings.Contains(err.Error(), "saving assets") {
		t.Errorf("error = %v, want a saving-assets failure", err)
	}
	if rep == nil {
		t.Fatal("report dropped on save failure; served rows lost")
	}
	if rep.Failed != 0 || len(rep.Results) != 1 || rep.Results[0].E2EUs <= 0 {
		t.Errorf("served rows corrupted by save failure: %+v", rep.Results)
	}
	if rep.Error == nil || rep.Error.Code != "save_assets_failed" {
		t.Errorf("report error block = %+v, want code save_assets_failed", rep.Error)
	}
}
