package cluster

import (
	"bytes"
	"net/http"
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
	cache.InstallRemoteResult(req.ToPredict(), serve.Result{
		Request: req, E2EUs: 10234.567891234567, ActiveUs: 9876.54321987654, CPUUs: 8765.432198765432, GPUsUsed: 1, ScalingEfficiency: 1,
	})
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
