package client

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"dlrmperf/internal/serve"
)

import "context"

// stub builds a one-endpoint server answering with a fixed status,
// optional Retry-After, and a JSON body.
func stub(t *testing.T, status int, retryAfter string, body any) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		serve.WriteJSON(w, status, body)
	}))
	t.Cleanup(ts.Close)
	return New(ts.URL)
}

// TestPredictBatchIntoReplacesReport: a *serve.Report target comes back
// holding exactly the server's report, whether the codec's fast path or
// its encoding/json fallback (an escaped string) parsed it — nothing the
// caller's value held before the call survives, an error entry least of
// all.
func TestPredictBatchIntoReplacesReport(t *testing.T) {
	for _, msg := range []string{"", `unknown workload "x"`} {
		want := serve.NewReport([]serve.Result{{Request: serve.Request{Device: "P100"}, E2EUs: 1.5, Error: msg}, {Request: serve.Request{Device: "V100"}, E2EUs: 2}}, 2*time.Millisecond)
		cl := stub(t, http.StatusOK, "", want)
		got := serve.Report{Results: serve.Rows{{}, {}, {}}, Requests: 9, Failed: 9, ElapsedMs: 7, Error: &serve.ReportError{Code: "stale"}}
		if err := cl.PredictBatchInto(context.Background(), []serve.Request{{Device: "P100"}, {Device: "V100"}}, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("error %q: decoded report %+v, want %+v", msg, got, *want)
		}
	}
}

// TestErrorTaxonomy pins the one reader of a refusal: every non-200
// answer returns as a *serve.StatusError holding the status, code and
// message the server wrote, with its Retry-After hint parsed (0 when
// none was sent), and its Error is the message alone.
func TestErrorTaxonomy(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name       string
		status     int
		retryAfter string
		code, msg  string
		hint       time.Duration
	}{
		{"backpressure", http.StatusTooManyRequests, "7", "queue_full", "busy", 7 * time.Second},
		{"tenant-limited is backpressure", http.StatusTooManyRequests, "2", "tenant_limited", "share exhausted", 2 * time.Second},
		{"draining", http.StatusServiceUnavailable, "1", "draining", "bye", time.Second},
		{"no-workers", http.StatusServiceUnavailable, "", "no_workers", "none", 0},
		{"worker-failed", http.StatusBadGateway, "", "worker_failed", "dead", 0},
		{"generic 400", http.StatusBadRequest, "", "bad_priority", "nope", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := stub(t, tc.status, tc.retryAfter, serve.HTTPError{Code: tc.code, Message: tc.msg})
			_, err := cl.Predict(ctx, serve.Request{Workload: "w"})
			var se *serve.StatusError
			if !errors.As(err, &se) || se.Status != tc.status || se.Code != tc.code || se.Message != tc.msg || se.RetryAfter != tc.hint {
				t.Fatalf("err = %#v, want %d %s %q with a %v hint", err, tc.status, tc.code, tc.msg, tc.hint)
			}
			if err.Error() != tc.msg {
				t.Fatalf("Error() = %q, want the message %q", err.Error(), tc.msg)
			}
		})
	}
}

// TestNonEnvelopeErrorBody: a non-JSON error body still produces a
// usable refusal with code "unknown" and a bounded raw snippet.
func TestNonEnvelopeErrorBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte("<html>panic</html>" + strings.Repeat("x", 1024)))
	}))
	t.Cleanup(ts.Close)
	_, err := New(ts.URL).Predict(context.Background(), serve.Request{Workload: "w"})
	var se *serve.StatusError
	if !errors.As(err, &se) || se.Code != "unknown" || se.Status != http.StatusInternalServerError {
		t.Fatalf("err = %v, want unknown-code refusal", err)
	}
	if len(se.Message) > 256 || !strings.HasPrefix(se.Message, "<html>panic</html>") {
		t.Fatalf("raw snippet not bounded or not the body's head: %d bytes", len(se.Message))
	}
}

// TestHealthzBothStates: 200 ok and 503 draining both decode without
// error — draining is a reportable state, not a failure.
func TestHealthzBothStates(t *testing.T) {
	ctx := context.Background()
	if h, err := stub(t, http.StatusOK, "", map[string]any{"status": "ok", "workers": 3}).Healthz(ctx); err != nil || h.Status != "ok" || h.Workers != 3 {
		t.Fatalf("healthy = %+v / %v", h, err)
	}
	if h, err := stub(t, http.StatusServiceUnavailable, "", map[string]any{"status": "draining"}).Healthz(ctx); err != nil || h.Status != "draining" {
		t.Fatalf("draining = %+v / %v", h, err)
	}
}

// TestBodySizeLimit: a response past the configured cap is an error
// that names the cap and unwraps to ErrBodyTooLarge — on a 200 and on an
// error status alike, with and without a Content-Length — instead of
// whatever parsing the truncated body happened to yield. A body of
// exactly the cap is read whole.
func TestBodySizeLimit(t *testing.T) {
	const limit = 64
	for _, tc := range []struct {
		name     string
		status   int
		body     string
		chunked  bool
		tooLarge bool
	}{
		{name: "200 over the cap", status: http.StatusOK, body: `{"error":"` + strings.Repeat("x", 4096) + `"}`, tooLarge: true},
		{name: "200 over the cap, no Content-Length", status: http.StatusOK, body: `{"error":"` + strings.Repeat("x", 4096) + `"}`, chunked: true, tooLarge: true},
		{name: "200 one byte over", status: http.StatusOK, body: `{"requests":1}` + strings.Repeat(" ", limit+1-14), tooLarge: true},
		{name: "200 at the cap", status: http.StatusOK, body: `{"requests":1}` + strings.Repeat(" ", limit-14)},
		{name: "429 over the cap", status: http.StatusTooManyRequests, body: `{"code":"queue_full","message":"` + strings.Repeat("x", 4096) + `"}`, tooLarge: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				w.WriteHeader(tc.status)
				if tc.chunked {
					w.(http.Flusher).Flush()
				}
				w.Write([]byte(tc.body))
			}))
			t.Cleanup(ts.Close)
			cl := New(ts.URL)
			cl.maxBody = limit
			st, err := cl.Stats(context.Background())
			if !tc.tooLarge {
				if err != nil || st.Requests != 1 {
					t.Fatalf("body at the cap: %+v / %v, want it parsed", st, err)
				}
				return
			}
			if !errors.Is(err, ErrBodyTooLarge) || !strings.Contains(err.Error(), "64-byte cap") {
				t.Fatalf("err = %v, want ErrBodyTooLarge naming the 64-byte cap", err)
			}
			var se *serve.StatusError
			if errors.As(err, &se) {
				t.Fatalf("an unread body was decoded as a server verdict: %v", err)
			}
		})
	}
}

// TestParseRetryAfter covers the header forms this surface can emit.
func TestParseRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"7", 7 * time.Second},
		{"0", 0},
		{"", 0},
		{"-3", 0},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0}, // date form unsupported by design
	} {
		h := http.Header{}
		if tc.in != "" {
			h.Set("Retry-After", tc.in)
		}
		if got := parseRetryAfter(h); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestTransportErrorIsNotAPIError: a dead socket surfaces as the
// transport error, not as a server's refusal.
func TestTransportErrorIsNotAPIError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	ts.Close() // dead before use
	_, err := New(ts.URL).Predict(context.Background(), serve.Request{Workload: "w"})
	if err == nil {
		t.Fatal("predict against a closed server succeeded")
	}
	var se *serve.StatusError
	if errors.As(err, &se) {
		t.Fatalf("transport failure decoded as a refusal: %v", err)
	}
}

// TestRegisterAndDrainPaths: the control-plane helpers hit the right
// endpoints with the right payloads, the wire bodies serve declares.
func TestRegisterAndDrainPaths(t *testing.T) {
	var gotPath, gotBody string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath = r.URL.Path
		buf := make([]byte, 256)
		n, _ := r.Body.Read(buf)
		gotBody = string(buf[:n])
		serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	t.Cleanup(ts.Close)
	cl := New(ts.URL)
	ctx := context.Background()

	if err := cl.Register(ctx, "w1", "http://worker:8080"); err != nil {
		t.Fatal(err)
	}
	if gotPath != "/v1/workers/register" || !strings.Contains(gotBody, `"id":"w1"`) || !strings.Contains(gotBody, `"url":"http://worker:8080"`) {
		t.Fatalf("register hit %s with %s", gotPath, gotBody)
	}
	if err := cl.PushAssets(ctx, "w1", "V100", 3, []byte(`{"device":"V100"}`)); err != nil {
		t.Fatal(err)
	}
	if want := `{"id":"w1","device":"V100","epoch":3,"assets":{"device":"V100"}}`; gotPath != "/v1/workers/assets" || gotBody != want {
		t.Fatalf("push hit %s with %s, want %s", gotPath, gotBody, want)
	}
	if err := cl.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if gotPath != "/v1/drain" {
		t.Fatalf("drain hit %s", gotPath)
	}
}

// TestRequestAssembly: calls are assembled from the base URL parsed at
// New, not through http.NewRequest. What the server sees must not have
// changed — method, path under a base with a prefix, JSON content type
// and length, a codec-encoded body — the request still carries GetBody
// for the transport's replay, and an unparsable base fails the call.
func TestRequestAssembly(t *testing.T) {
	var got *http.Request
	var gotBody string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		data, _ := io.ReadAll(r.Body)
		got, gotBody = r, string(data)
		serve.WriteJSON(w, http.StatusOK, serve.Result{Request: serve.Request{Device: "V100"}, E2EUs: 1.5})
	}))
	t.Cleanup(ts.Close)
	var replay func() (io.ReadCloser, error)
	hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		replay = r.GetBody
		return http.DefaultTransport.RoundTrip(r)
	})}
	ctx := context.Background()

	req := serve.Request{Workload: "DLRM_default", Batch: 512, Device: "V100"}
	row, err := New(ts.URL+"/prefix/", WithHTTPClient(hc)).Predict(ctx, req)
	if err != nil || row.E2EUs != 1.5 || row.Device != "V100" {
		t.Fatalf("predict = %+v / %v", row, err)
	}
	want, _ := json.Marshal(req)
	if got.Method != http.MethodPost || got.URL.Path != "/prefix/v1/predict" || got.Header.Get("Content-Type") != "application/json" ||
		got.ContentLength != int64(len(want)) || gotBody != string(want) || got.Host != strings.TrimPrefix(ts.URL, "http://") {
		t.Fatalf("server saw %s %s (%s, %d bytes, host %s) %s\nwant POST /prefix/v1/predict with %s", got.Method, got.URL.Path,
			got.Header.Get("Content-Type"), got.ContentLength, got.Host, gotBody, want)
	}
	if body, err := replay(); err != nil {
		t.Fatal(err)
	} else if again, _ := io.ReadAll(body); string(again) != string(want) {
		t.Fatalf("GetBody replays %q, want %q", again, want)
	}

	if _, err := New(ts.URL).Scenarios(ctx); err == nil || got.Method != http.MethodGet || got.URL.Path != "/v1/scenarios" || got.ContentLength != 0 {
		t.Fatalf("scenarios: the stub's row is not a name list (err %v); server saw %s %s", err, got.Method, got.URL.Path)
	}
	if _, err := New("http://bad host").Predict(ctx, req); err == nil {
		t.Fatal("a base URL that does not parse served a call")
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
