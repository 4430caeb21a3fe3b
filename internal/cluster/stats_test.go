package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
