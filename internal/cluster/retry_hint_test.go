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

// TestBackpressureHintRoundsUp pins the 429 pass-through hint
// rendering: sub-second worker hints must round UP to 1 second —
// truncation emitted "0", telling clients to hammer a worker that had
// just asked them to back off — and whole seconds pass through
// unchanged. Non-positive means no hint.
func TestBackpressureHintRoundsUp(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, ""},
		{-time.Second, ""},
		{time.Millisecond, "1"},
		{250 * time.Millisecond, "1"},
		{999 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1100 * time.Millisecond, "2"},
		{1500 * time.Millisecond, "2"},
		{7 * time.Second, "7"},
		{7*time.Second + time.Millisecond, "8"},
	}
	for _, tc := range cases {
		if got := backpressureHint(tc.d); got != tc.want {
			t.Errorf("backpressureHint(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

// TestAdaptiveRetryAfterTracksWorkerHints pins the coordinator-origin
// 503 hint: it starts at the serve.MinRetryAfter floor, climbs toward
// observed worker 429 hints (a coordinator fronting saturated workers
// must not invite clients back sooner than the workers themselves
// would), and clamps at serve.MaxRetryAfter.
func TestAdaptiveRetryAfterTracksWorkerHints(t *testing.T) {
	reg := NewRegistry(0)
	coord := New(Config{Registry: reg})

	if got := coord.retryAfter(); got != "1" {
		t.Fatalf("hint before any observation = %q, want the 1s floor", got)
	}
	// The EWMA (alpha 1/4) converges onto a sustained worker hint.
	for i := 0; i < 32; i++ {
		coord.observeWorkerHint(8 * time.Second)
	}
	if got := coord.retryAfter(); got != "8" {
		t.Fatalf("hint after sustained 8s worker hints = %q, want 8", got)
	}
	// Hints above the ceiling clamp.
	for i := 0; i < 32; i++ {
		coord.observeWorkerHint(time.Minute)
	}
	if got := coord.retryAfter(); got != "30" {
		t.Fatalf("hint after 60s worker hints = %q, want the 30s ceiling", got)
	}
	// Non-positive observations are ignored, not folded in as zeros.
	coord.observeWorkerHint(0)
	if got := coord.retryAfter(); got != "30" {
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
	coord := New(Config{Registry: reg})

	for i := 0; i < 32; i++ {
		var bp *BackpressureError
		if _, err := coord.PredictOne(context.Background(), req("V100", "w", 512), false); !errors.As(err, &bp) {
			t.Fatalf("err = %v, want backpressure", err)
		}
	}
	coord.Drain(false)

	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	var dr *client.ErrDraining
	_, err := client.New(ts.URL).Predict(context.Background(), req("V100", "w", 512))
	if !errors.As(err, &dr) {
		t.Fatalf("err = %v, want draining", err)
	}
	if dr.RetryAfter < 7*time.Second {
		t.Fatalf("draining Retry-After = %v, want >= the workers' own 7s hint", dr.RetryAfter)
	}
}
