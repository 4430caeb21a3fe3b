package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"dlrmperf/internal/serve"
)

// TestStatsRejectedBytes pins the "rejected" object of the coordinator's
// GET /stats document: the workers' five admission buckets summed, the
// coordinator's own draining refusals added to the workers', and its two
// routing buckets after them. Every bucket holds a distinct count, so a
// field that moved, merged or dropped changes the bytes.
func TestStatsRejectedBytes(t *testing.T) {
	var agg Stats
	agg.Rejected.Draining = 3 // refused at the coordinator
	agg.Rejected.WorkerFailed = 6
	agg.Rejected.NoWorkers = 7
	var ws serve.Stats
	ws.Rejected = serve.RejectedStats{Validation: 1, QueueFull: 2, TenantLimited: 3, Draining: 1, Canceled: 5}
	agg.mergeWorker("w1", ws)

	rec := httptest.NewRecorder()
	serve.WriteJSON(rec, http.StatusOK, agg)
	var doc struct {
		Rejected json.RawMessage `json:"rejected"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	const want = `{"validation":1,"queue_full":2,"tenant_limited":3,"draining":4,"canceled_admissions":5,"worker_failed":6,"no_workers":7}`
	if string(doc.Rejected) != want {
		t.Errorf("rejected = %s\nwant       %s", doc.Rejected, want)
	}
	if got := agg.Rejected.Total(); got != 28 {
		t.Errorf("Total() = %d, want 28", got)
	}
}

// TestMergeSumsEveryRejectedBucket fills every field of two workers'
// serve.RejectedStats by reflection with distinct values, merges both,
// and checks each field of the aggregate: a bucket added to
// RejectedStats cannot stay zero cluster-wide.
func TestMergeSumsEveryRejectedBucket(t *testing.T) {
	var w1, w2 serve.Stats
	v1, v2 := reflect.ValueOf(&w1.Rejected).Elem(), reflect.ValueOf(&w2.Rejected).Elem()
	for i := 0; i < v1.NumField(); i++ {
		v1.Field(i).SetUint(uint64(i + 1))
		v2.Field(i).SetUint(uint64(100 * (i + 1)))
	}
	var agg Stats
	agg.mergeWorker("w1", w1)
	agg.mergeWorker("w2", w2)
	got := reflect.ValueOf(agg.Rejected.RejectedStats)
	for i := 0; i < got.NumField(); i++ {
		if want := uint64(101 * (i + 1)); got.Field(i).Uint() != want {
			t.Errorf("rejected %s = %d, want %d", got.Type().Field(i).Name, got.Field(i).Uint(), want)
		}
	}
}
