package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dlrmperf/internal/client"
	"dlrmperf/internal/serve"
)

// TestWorker429PassesThroughVerbatim: a worker's 429 reaches the
// coordinator's client exactly as the worker sent it — status, code,
// message and Retry-After hint — and a worker 429 that carried no hint
// gets the coordinator's adaptive one. (That a 429 is no worker failure
// is TestBackpressurePassThrough's; rounding a hint up to whole seconds
// is TestRetryAfterSecondsRoundsUp's.)
func TestWorker429PassesThroughVerbatim(t *testing.T) {
	for _, tc := range []struct {
		name, retryAfter string
		want             time.Duration
	}{
		{"worker hint", "3", 3 * time.Second},
		{"no worker hint", "", 8 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			limited := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				if tc.retryAfter != "" {
					w.Header().Set("Retry-After", tc.retryAfter)
				}
				serve.WriteJSON(w, http.StatusTooManyRequests, serve.HTTPError{Code: "tenant_limited", Message: "share exhausted"})
			}))
			defer limited.Close()
			reg := NewRegistry(0)
			reg.AddStatic(limited.URL)
			coord := New(Config{Registry: reg, Cache: passThrough{}})
			for i := 0; i < 32; i++ {
				coord.observeWorkerHint(8 * time.Second) // the coordinator's adaptive hint converges on 8s
			}
			front := httptest.NewServer(coord.Handler())
			defer front.Close()

			_, err := client.New(front.URL).Predict(context.Background(), req("V100", "w", 512))
			var se *serve.StatusError
			if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests || se.Code != "tenant_limited" ||
				se.Message != "share exhausted" || se.RetryAfter != tc.want {
				t.Fatalf("err = %#v, want 429 tenant_limited \"share exhausted\" with a %v hint", err, tc.want)
			}
		})
	}
}

// TestAdaptiveRetryAfterTracksWorkerHints pins the coordinator-origin
// 503 hint: it starts at the serve.MinRetryAfter floor, climbs toward
// observed worker 429 hints (a coordinator fronting saturated workers
// must not invite clients back sooner than the workers themselves
// would), and clamps at serve.MaxRetryAfter.
func TestAdaptiveRetryAfterTracksWorkerHints(t *testing.T) {
	reg := NewRegistry(0)
	coord := New(Config{Registry: reg, Cache: passThrough{}})

	if got := serve.RetryAfterSeconds(coord.retryAfter()); got != "1" {
		t.Fatalf("hint before any observation = %q, want the 1s floor", got)
	}
	// The EWMA (alpha 1/4) converges onto a sustained worker hint.
	for i := 0; i < 32; i++ {
		coord.observeWorkerHint(8 * time.Second)
	}
	if got := serve.RetryAfterSeconds(coord.retryAfter()); got != "8" {
		t.Fatalf("hint after sustained 8s worker hints = %q, want 8", got)
	}
	// Hints above the ceiling clamp.
	for i := 0; i < 32; i++ {
		coord.observeWorkerHint(time.Minute)
	}
	if got := serve.RetryAfterSeconds(coord.retryAfter()); got != "30" {
		t.Fatalf("hint after 60s worker hints = %q, want the 30s ceiling", got)
	}
	// Non-positive observations are ignored, not folded in as zeros.
	coord.observeWorkerHint(0)
	if got := serve.RetryAfterSeconds(coord.retryAfter()); got != "30" {
		t.Fatalf("hint after a zero observation = %q, want unchanged", got)
	}
}

// TestDraining503CarriesObservedHint drives the adaptive hint
// end-to-end over HTTP: a worker 429 with a 7s hint teaches the
// coordinator, whose own draining 503 then tells the client to come
// back no sooner than the workers would.
func TestDraining503CarriesObservedHint(t *testing.T) {
	reg := NewRegistry(0)
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "7")
		serve.WriteJSON(w, http.StatusTooManyRequests, serve.HTTPError{Code: "queue_full", Message: "busy"})
	}))
	defer busy.Close()
	reg.AddStatic(busy.URL)
	coord := New(Config{Registry: reg, Cache: passThrough{}})

	for i := 0; i < 32; i++ {
		var bp *serve.StatusError
		if _, err := coord.PredictOne(context.Background(), req("V100", "w", 512), false); !errors.As(err, &bp) || bp.Status != http.StatusTooManyRequests {
			t.Fatalf("err = %v, want the worker's 429", err)
		}
	}
	coord.Drain(false)

	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	var dr *serve.StatusError
	_, err := client.New(ts.URL).Predict(context.Background(), req("V100", "w", 512))
	if !errors.As(err, &dr) || dr.Status != http.StatusServiceUnavailable || dr.Code != "draining" {
		t.Fatalf("err = %v, want 503 draining", err)
	}
	if dr.RetryAfter < 7*time.Second {
		t.Fatalf("draining Retry-After = %v, want >= the workers' own 7s hint", dr.RetryAfter)
	}
}
