package xsync

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachNCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 37
		hits := make([]int32, n)
		ForEachN(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestForEachNBoundsConcurrency(t *testing.T) {
	const workers = 4
	var inFlight, peak int32
	ForEachN(64, workers, func(int) {
		cur := atomic.AddInt32(&inFlight, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if cur <= p || atomic.CompareAndSwapInt32(&peak, p, cur) {
				break
			}
		}
		atomic.AddInt32(&inFlight, -1)
	})
	if peak > workers {
		t.Fatalf("observed %d concurrent invocations, bound is %d", peak, workers)
	}
}

func TestForEachNZero(t *testing.T) {
	called := false
	ForEachN(0, 8, func(int) { called = true })
	if called {
		t.Fatal("fn called for n=0")
	}
}

// goid parses the calling goroutine's id from its stack header
// ("goroutine 42 [running]:"), or returns -1.
func goid() int {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	if len(f) < 2 || f[0] != "goroutine" {
		return -1
	}
	id, err := strconv.Atoi(f[1])
	if err != nil {
		return -1
	}
	return id
}

// runOnRunner runs fn through Go and waits for it.
func runOnRunner(fn func()) {
	done := make(chan struct{})
	Go(func() {
		defer close(done)
		fn()
	})
	<-done
}

func TestGoReusesAFinishedRunner(t *testing.T) {
	var first, second int
	runOnRunner(func() { first = goid() })
	if first < 0 {
		t.Fatal("no goroutine id in the runner's stack header")
	}
	// The first runner parks after its fn returns, a moment after done
	// closes: retry until a Go finds it parked.
	for deadline := time.Now().Add(parkIdle / 2); ; {
		runOnRunner(func() { second = goid() })
		if second == first || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if second != first {
		t.Fatalf("second Go ran on goroutine %d, want the parked runner %d", second, first)
	}
}

func TestGoNestedDoesNotQueue(t *testing.T) {
	done := make(chan struct{})
	Go(func() {
		inner := make(chan struct{})
		Go(func() { close(inner) })
		<-inner
		close(done)
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a Go'd fn waiting on its own Go'd fn did not complete")
	}
}

// awaitNoRunners waits until every runner has exited, at most two
// sweep periods after the last fn returned.
func awaitNoRunners(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(2*parkIdle + 2*time.Second)
	for runners.Load() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d runners alive %v after the last fn", runners.Load(), 2*parkIdle+2*time.Second)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestGoRunnersExitWhenIdle(t *testing.T) {
	awaitNoRunners(t) // the runners of earlier tests
	base := runtime.NumGoroutine()
	const n = 8
	var started, release sync.WaitGroup
	started.Add(n)
	release.Add(1)
	for range n {
		Go(func() {
			started.Done()
			release.Wait()
		})
	}
	started.Wait()
	if got := runtime.NumGoroutine(); got < base+n {
		t.Fatalf("%d goroutines with %d fns blocked, want at least %d", got, n, base+n)
	}
	release.Done()
	awaitNoRunners(t)
	// A runner's last act is to count itself out: give it the moment to return.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after every runner exited, want the baseline %d", got, base)
	}
}
