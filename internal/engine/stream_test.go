package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
)

// awaitJoiners polls until at least n callers have joined key's
// flight, so a test orders its next step after an observable join
// instead of a sleep.
func awaitJoiners(t testing.TB, g *group, key string, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		g.mu.Lock()
		got := 0
		if c := g.calls[key]; c != nil {
			got = c.joiners
		}
		g.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight %q has %d joiners after 5s, want %d", key, got, n)
		}
	}
}

// TestDoCtxDetachedCompletion is the no-poison contract of the
// context-aware singleflight: a caller that abandons the wait leaves
// the flight running to completion, exactly once, and the key is
// usable again afterwards.
func TestDoCtxDetachedCompletion(t *testing.T) {
	var g group
	block := make(chan struct{})
	ran := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := g.DoCtx(ctx, "k", func() (any, error) {
		<-block
		close(ran)
		return "v", nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned caller error = %v, want context.Canceled", err)
	}
	close(block)
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("detached flight never completed")
	}
	// fn returning is not the flight completing: run frees the key after
	// fn returns, so wait for the key to go.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		g.mu.Lock()
		_, inFlight := g.calls["k"]
		g.mu.Unlock()
		if !inFlight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("detached flight never freed its key")
		}
	}
	// The key is free again: a fresh call executes a fresh fn.
	executed := false
	v, err := g.DoCtx(context.Background(), "k", func() (any, error) {
		executed = true
		return "v2", nil
	})
	if err != nil || v != "v2" || !executed {
		t.Fatalf("post-abandon call = (%v, %v, executed %v), want (v2, nil, true)", v, err, executed)
	}
}

// TestPredictCtxCancelDoesNotPoison pins the serving-layer contract: a
// request whose context is canceled mid-computation returns ctx.Err()
// to its caller, is counted as a miss, and leaves the
// singleflight entry clean — the next identical request computes (or
// joins) normally, with the device still calibrating exactly once.
// The in-flight computation is made deterministic by pre-occupying the
// request's flight key with a test-controlled blocking flight.
func TestPredictCtxCancelDoesNotPoison(t *testing.T) {
	e := New(tinyOptions(11))
	req := NewRequest(hw.V100, models.NameDLRMDefault, 256)
	key := "predict/" + req.Key()

	block := make(chan struct{})
	started := make(chan struct{})
	flightDone := make(chan struct{})
	go func() {
		defer close(flightDone)
		_, _ = e.flight.DoCtx(context.Background(), key, func() (any, error) {
			close(started)
			<-block
			return nil, errors.New("test flight failed")
		})
	}()
	<-started

	// Join the blocked flight with a cancelable context, then abandon.
	ctx, cancel := context.WithCancel(context.Background())
	resCh := make(chan Result, 1)
	go func() { resCh <- e.PredictCtx(ctx, req) }()
	awaitJoiners(t, &e.flight, key, 1)
	cancel()
	res := <-resCh
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("canceled request error = %v, want context.Canceled", res.Err)
	}

	// Release the blocked flight (it fails); the key must be clean: the
	// next request computes for real and succeeds.
	close(block)
	<-flightDone
	res2 := e.Predict(req)
	if res2.Err != nil {
		t.Fatalf("post-cancel request failed: %v", res2.Err)
	}
	if got := e.CalibrationRuns(hw.V100); got != 1 {
		t.Fatalf("calibrations executed = %d, want 1", got)
	}
	if hits, misses := e.CacheStats(); hits+misses != 2 {
		t.Fatalf("hits+misses = %d+%d, want 2 (the canceled request and its repeat)", hits, misses)
	}
}

// TestPredictCtxDuplicateInFlight drives N concurrent identical
// requests through PredictCtx and requires exactly one computation:
// one miss, N-1 hits (joins or cache hits), one calibration, identical
// predictions.
func TestPredictCtxDuplicateInFlight(t *testing.T) {
	e := New(tinyOptions(13))
	req := NewRequest(hw.V100, models.NameDLRMDefault, 256)
	const n = 8
	results := make([]Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = e.PredictCtx(context.Background(), req)
		}(i)
	}
	wg.Wait()

	computed := 0
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d failed: %v", i, r.Err)
		}
		if r.Prediction.E2E != results[0].Prediction.E2E {
			t.Fatalf("request %d prediction differs", i)
		}
		if !r.CacheHit {
			computed++
		}
	}
	if computed != 1 {
		t.Fatalf("%d requests computed, want exactly 1", computed)
	}
	if got := e.CalibrationRuns(hw.V100); got != 1 {
		t.Fatalf("calibrations executed = %d, want 1", got)
	}
	hits, misses := e.CacheStats()
	if misses != 1 || hits != n-1 {
		t.Fatalf("cache = %d/%d hit/miss, want %d/1", hits, misses, n-1)
	}
}

// TestPredictCtxExpiredAtEntry covers the cheap path: a context that is
// already done is rejected before any asset work, counted as a miss so
// the accounting invariant holds.
func TestPredictCtxExpiredAtEntry(t *testing.T) {
	e := New(tinyOptions(17))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := e.PredictCtx(ctx, NewRequest(hw.V100, models.NameDLRMDefault, 256))
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", res.Err)
	}
	if got := e.CalibrationRuns(hw.V100); got != 0 {
		t.Fatalf("expired request calibrated the device (%d runs)", got)
	}
	if hits, misses := e.CacheStats(); hits != 0 || misses != 1 {
		t.Fatalf("counters = hits %d misses %d, want 0/1", hits, misses)
	}
}
