package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"dlrmperf"
	"dlrmperf/internal/serve"
)

// applyHarness is one peered coordinator, with a real engine as its
// pass-through cache, whose POST /v1/peers/apply is driven in process.
// Nothing it does opens a socket: the peer endpoint applies and never
// replicates, and the tests read the cache without routing.
type applyHarness struct {
	c   *Coordinator
	eng *dlrmperf.Engine
	h   http.Handler
}

func newApplyHarness(t testing.TB) *applyHarness {
	t.Helper()
	eng, err := dlrmperf.NewEngineWith(dlrmperf.EngineConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{Registry: NewRegistry(0), Cache: eng, Self: "http://127.0.0.1:1", Peers: []string{"http://127.0.0.1:2"}})
	return &applyHarness{c: c, eng: eng, h: c.Handler()}
}

// post answers one peer-apply body and returns the status code.
func (a *applyHarness) post(body []byte) int {
	rec := httptest.NewRecorder()
	a.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/peers/apply", bytes.NewReader(body)))
	return rec.Code
}

// applyState is everything a peer-apply body may change: the worker
// registry, the asset vault, the install counter and the resident
// results.
type applyState struct {
	workers              []Worker
	vault                map[string]vaultEntry
	installed            uint64
	results, resultBytes int64
}

func (a *applyHarness) state() applyState {
	s := applyState{installed: a.c.peerResultsInstalled.Load(), vault: map[string]vaultEntry{}}
	for _, w := range a.c.reg.Snapshot() {
		s.workers = append(s.workers, w.Worker)
	}
	a.c.vault.mu.Lock()
	for d, e := range a.c.vault.entries {
		s.vault[d] = e
	}
	a.c.vault.mu.Unlock()
	rc := a.eng.AssetStats().Class("results")
	s.results, s.resultBytes = int64(rc.Resident), rc.Bytes
	return s
}

// peerRow is the peer-apply body of one replicated result row.
func peerRow(t *testing.T, r serve.Request) []byte {
	t.Helper()
	body, err := json.Marshal(entry{From: "http://127.0.0.1:2", Request: &r, Row: &serve.Result{Request: r, E2EUs: 42}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestPeerApplyRefusesRowsNoWorkerWouldServe: a replicated row is
// installed only for a request the serving path would accept — a known
// device and workload or scenario, and a spec that validates. Anything
// else is 400 and changes nothing: not the install counter, not the
// resident results, and the request stays a miss. A valid row is 200,
// one install, and a local hit.
func TestPeerApplyRefusesRowsNoWorkerWouldServe(t *testing.T) {
	bad := []struct {
		name string
		req  serve.Request
	}{
		{"unknown workload", req("V100", "NoSuchModel", 512)},
		{"unknown device", req("NoSuchGPU", "DLRM_default", 512)},
		{"batch 0", req("V100", "DLRM_default", 0)},
		{"negative batch", req("V100", "DLRM_default", -5)},
		{"unknown scenario", serve.Request{Scenario: "no-such-scenario", Device: "V100"}},
		{"comm on a single device", serve.Request{Workload: "DLRM_default", Batch: 512, Device: "V100", Comm: "pcie"}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			a := newApplyHarness(t)
			before := a.state()
			if code := a.post(peerRow(t, tc.req)); code != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", code)
			}
			if after := a.state(); !reflect.DeepEqual(after, before) {
				t.Errorf("refused row changed state: %+v -> %+v", before, after)
			}
			if row, err := a.c.PredictOne(context.Background(), tc.req, false); err == nil && row.CacheHit {
				t.Errorf("refused row served as a local hit: %+v", row)
			}
		})
	}

	a := newApplyHarness(t)
	valid := req("V100", "DLRM_default", 512)
	before := a.state()
	if code := a.post(peerRow(t, valid)); code != http.StatusOK {
		t.Fatalf("valid row status = %d, want 200", code)
	}
	after := a.state()
	if after.installed != before.installed+1 || after.results != before.results+1 {
		t.Errorf("valid row: installs %d -> %d, resident results %d -> %d, want +1 each",
			before.installed, after.installed, before.results, after.results)
	}
	row, err := a.c.PredictOne(context.Background(), valid, false)
	if err != nil || !row.CacheHit || row.E2EUs != 42 {
		t.Errorf("valid row = %+v, %v; want the installed row as a local hit", row, err)
	}
}

// FuzzPeerApply fuzzes the body of POST /v1/peers/apply, the one
// endpoint through which a peer coordinator writes replicated state.
// A refused body changes nothing: not the registry, the asset vault,
// the install counter or the resident results. An accepted result row
// is a local hit for its request, and that request validates. The
// checked-in corpus (testdata/fuzz/FuzzPeerApply) holds a
// registration, an asset push, a valid row and rows for an unknown
// workload, an unknown device, batch 0 and batch -5.
func FuzzPeerApply(f *testing.F) {
	a := newApplyHarness(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		before := a.state()
		code := a.post(body)
		after := a.state()
		if code != http.StatusOK {
			if !reflect.DeepEqual(after, before) {
				t.Fatalf("refused body (%d) changed state: %+v -> %+v", code, before, after)
			}
			return
		}
		var e entry
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("accepted a body that does not decode: %v", err)
		}
		if e.Registration != nil || e.Assets != nil || e.Request == nil || e.Row == nil || e.Row.Error != "" {
			return // not a result install
		}
		p := e.Request.ToPredict()
		spec, err := p.Resolve()
		if err != nil || !slices.Contains(dlrmperf.Devices(), p.Device) || !slices.Contains(dlrmperf.Workloads(), spec.Scenario.Workload) {
			t.Fatalf("installed a row for %+v, which does not validate (%v)", *e.Request, err)
		}
		if after.installed != before.installed+1 {
			t.Fatalf("accepted row moved installs %d -> %d, want +1", before.installed, after.installed)
		}
		v, ok := a.eng.ResidentResult(p)
		if !ok {
			t.Fatalf("accepted row for %+v is not resident", *e.Request)
		}
		if got, want := v.(answer), answerOf(e.Row); got != want {
			t.Fatalf("resident answer %+v, installed %+v", got, want)
		}
	})
}
