package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"dlrmperf"
	"dlrmperf/internal/serve"
)

// replayBody is a request body that can be rewound instead of rebuilt.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// discardWriter is a ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w discardWriter) WriteHeader(int)             {}

// BenchmarkCoordinatorHit is the coordinator's own share of a resident
// hit, gated by benchdiff: POST /v1/predict through handlePredict —
// body read, codec parse, cache probe, envelope re-stamp, codec encode —
// with no socket and no net/http around it.
func BenchmarkCoordinatorHit(b *testing.B) {
	cache, err := dlrmperf.NewEngineWith(dlrmperf.EngineConfig{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	coord := New(Config{Registry: NewRegistry(0), Cache: cache})
	req := serve.Request{Workload: "DLRM_default", Batch: 512, Device: "V100"}
	cache.InstallRemoteResult(req.ToPredict(), answerOf(&serve.Result{
		Request: req, E2EUs: 10234.567891234567, ActiveUs: 9876.54321987654, CPUUs: 8765.432198765432, GPUsUsed: 1, ScalingEfficiency: 1,
	}))
	data := serve.AppendRequest(nil, &req)
	body := &replayBody{}
	r, err := http.NewRequest(http.MethodPost, "/v1/predict", body)
	if err != nil {
		b.Fatal(err)
	}
	r.ContentLength = int64(len(data))
	w := discardWriter{h: http.Header{}}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(data)
		coord.handlePredict(w, r)
	}
	b.StopTimer()
	if got := coord.localHits.Load(); got != uint64(b.N) {
		b.Fatalf("%d of %d requests were local hits", got, b.N)
	}
}

// BenchmarkCoordinatorBatchHit is the coordinator's own share of a
// batch call whose 64 rows are all resident: POST /v1/predict/batch
// through handleBatch — body read, codec parse, plan, one local hit per
// row, report encode. The one worker in the registry must see no
// request: a resident batch asks no worker for anything.
func BenchmarkCoordinatorBatchHit(b *testing.B) {
	cache, err := dlrmperf.NewEngineWith(dlrmperf.EngineConfig{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	var seen atomic.Uint64
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		seen.Add(1)
		serve.WriteJSON(w, http.StatusOK, serve.Stats{})
	}))
	defer worker.Close()
	reg := NewRegistry(0)
	reg.AddStatic(worker.URL)
	coord := New(Config{Registry: reg, Cache: cache})

	reqs := make([]serve.Request, 64)
	for i := range reqs {
		reqs[i] = serve.Request{Workload: "DLRM_default", Batch: int64(512 + i), Device: "V100"}
		cache.InstallRemoteResult(reqs[i].ToPredict(), answerOf(&serve.Result{
			Request: reqs[i], E2EUs: 10234.567891234567 + float64(i), ActiveUs: 9876.54321987654, CPUUs: 8765.432198765432, GPUsUsed: 1, ScalingEfficiency: 1,
		}))
	}
	data := serve.AppendRequests(nil, reqs)
	body := &replayBody{}
	r, err := http.NewRequest(http.MethodPost, "/v1/predict/batch", body)
	if err != nil {
		b.Fatal(err)
	}
	r.ContentLength = int64(len(data))
	w := discardWriter{h: http.Header{}}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(data)
		coord.handleBatch(w, r)
	}
	b.StopTimer()
	if got, want := coord.localHits.Load(), uint64(len(reqs)*b.N); got != want {
		b.Fatalf("%d of %d rows were local hits", got, want)
	}
	if n := seen.Load(); n != 0 {
		b.Fatalf("the worker saw %d requests during resident batch calls", n)
	}
}
