package cluster

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestEvery pins the periodic-loop contract every heartbeat and probe
// rides: the first run is immediate (not one interval late), stop is
// idempotent and returns only after the loop has exited — fn never
// runs again — and canceling ctx exits the loop too (the package's
// leakcheck TestMain fails the suite if either path leaks the
// goroutine).
func TestEvery(t *testing.T) {
	var runs atomic.Int64
	first := make(chan struct{}, 1)
	stop := every(context.Background(), time.Hour, func() {
		if runs.Add(1) == 1 {
			first <- struct{}{}
		}
	})
	select {
	case <-first:
	case <-time.After(5 * time.Second):
		t.Fatal("first run did not happen immediately (interval is 1h)")
	}
	stop()
	stop()
	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times under a 1h interval, want 1", n)
	}

	// A short interval keeps ticking until stop; nothing runs after it.
	runs.Store(0)
	stop = every(context.Background(), time.Millisecond, func() { runs.Add(1) })
	waitUntil(t, "ticks to accumulate", func() bool { return runs.Load() >= 3 })
	stop()
	after := runs.Load()
	time.Sleep(20 * time.Millisecond)
	if n := runs.Load(); n != after {
		t.Fatalf("fn ran after stop returned: %d -> %d", after, n)
	}

	// Cancellation alone exits the loop: fn goes quiet before stop is
	// ever called, and stop afterwards still returns.
	ctx, cancel := context.WithCancel(context.Background())
	stop = every(ctx, time.Millisecond, func() { runs.Add(1) })
	cancel()
	waitUntil(t, "loop to go quiet after ctx cancel", func() bool {
		n := runs.Load()
		time.Sleep(20 * time.Millisecond)
		return runs.Load() == n
	})
	stop()
}
