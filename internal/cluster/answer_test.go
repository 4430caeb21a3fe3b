package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"dlrmperf"
	"dlrmperf/internal/serve"
)

// fullRow is a worker row with every answer field set, so a field the
// cache dropped could not compare equal by being zero on both sides.
func fullRow(req serve.Request) serve.Result {
	return serve.Result{
		Request:           req,
		E2EUs:             10234.567891234567,
		ActiveUs:          9876.54321987654,
		CPUUs:             8765.432198765432,
		GPUsUsed:          4,
		ScalingEfficiency: 0.8123456789,
		AllReduceUs:       321.0987654321,
		AllToAllUs:        123.4567890123,
		ShardImbalance:    1.0625,
		CacheHit:          true,
		QueueWaitUs:       17,
	}
}

// TestFullRowSetsEveryField keeps fullRow honest as serve.Result grows:
// every field besides the envelope and Error must be set in it.
func TestFullRowSetsEveryField(t *testing.T) {
	row := reflect.ValueOf(fullRow(serve.Request{}))
	for i := range row.NumField() {
		f := row.Type().Field(i)
		if f.Name != "Request" && f.Name != "Error" && row.Field(i).IsZero() {
			t.Errorf("fullRow leaves serve.Result.%s zero: set it, and keep it in answer", f.Name)
		}
	}
}

// TestHitRebuildsFetchedRow: the coordinator caches a worker row's
// answer without its envelope, and every hit rebuilds the row the
// worker sent under the caller's own envelope, field for field —
// through PredictOne, through a batch call's plan, and on a coordinator
// that holds the answer from a peer install.
func TestHitRebuildsFetchedRow(t *testing.T) {
	var served atomic.Uint64
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req serve.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("worker got %s: %v", r.URL.Path, err)
			return
		}
		served.Add(1)
		serve.WriteJSON(w, http.StatusOK, fullRow(req))
	}))
	defer worker.Close()
	newCoord := func(workers ...string) *Coordinator {
		cache, err := dlrmperf.NewEngineWith(dlrmperf.EngineConfig{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		reg := NewRegistry(0)
		for _, u := range workers {
			reg.AddStatic(u)
		}
		return New(Config{Registry: reg, Cache: cache})
	}
	// Three envelopes of one scenario identity: tenant, priority and
	// timeout never enter the key.
	first := serve.Request{Workload: "DLRM_default", Batch: 2048, Device: "V100", GPUs: 4, Comm: "nvlink", Tenant: "a"}
	again := first
	again.Tenant, again.Priority, again.TimeoutMs = "b", "low", 9000
	batched := first
	batched.Tenant, batched.Priority = "c", "high"
	hitOf := func(req serve.Request) serve.Result {
		row := fullRow(req)
		row.CacheHit = true
		return row
	}
	check := func(where string, got, want serve.Result) {
		t.Helper()
		if got != want {
			t.Errorf("%s:\n got %+v\nwant %+v", where, got, want)
		}
	}
	ctx := context.Background()

	origin := newCoord(worker.URL)
	fetched, err := origin.PredictOne(ctx, first, false)
	if err != nil {
		t.Fatal(err)
	}
	check("fetch", fetched, fullRow(first))
	hit, err := origin.PredictOne(ctx, again, false)
	if err != nil {
		t.Fatal(err)
	}
	check("PredictOne hit", hit, hitOf(again))
	check("plan hit", origin.RunBatch(ctx, []serve.Request{batched})[0], hitOf(batched))
	if n, hits := served.Load(), origin.localHits.Load(); n != 1 || hits != 2 {
		t.Fatalf("worker served %d requests and the coordinator %d local hits, want 1 and 2", n, hits)
	}

	// A peer's install carries the worker's row as replication ships it;
	// this coordinator has no worker, so only a hit can answer.
	peer := newCoord()
	if changed, err := peer.apply(entry{Request: &first, Row: &fetched}); !changed || err != nil {
		t.Fatalf("peer install: changed %v, err %v", changed, err)
	}
	hit, err = peer.PredictOne(ctx, again, false)
	if err != nil {
		t.Fatal(err)
	}
	check("PredictOne hit after a peer install", hit, hitOf(again))
	check("plan hit after a peer install", peer.RunBatch(ctx, []serve.Request{batched})[0], hitOf(batched))
}

// TestResultsClassMetersAnswers pins what the coordinator's results
// class is charged per cached answer: the store's 48-byte entry charge
// plus the answer's own 80 bytes, where a value the engine could not
// size was charged 1 KiB.
func TestResultsClassMetersAnswers(t *testing.T) {
	cache, err := dlrmperf.NewEngineWith(dlrmperf.EngineConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	coord := New(Config{Registry: NewRegistry(0), Cache: cache})
	const installs = 40
	for i := range installs {
		req := serve.Request{Workload: "DLRM_default", Batch: int64(512 + i), Device: "V100"}
		row := fullRow(req)
		if _, err := coord.apply(entry{Request: &req, Row: &row}); err != nil {
			t.Fatal(err)
		}
	}
	results := cache.AssetStats().Class("results")
	if results.Resident != installs || results.Bytes != installs*(48+80) {
		t.Errorf("results class holds %d entries in %d B, want %d in %d B", results.Resident, results.Bytes, installs, installs*(48+80))
	}
}
