// Package xsync holds the small concurrency idioms the calibration,
// prediction, and serving layers share, so each is written (and
// audited) once.
package xsync

import (
	"sync"
	"sync/atomic"
	"time"
)

// atomicMin lowers v to at most x.
func atomicMin(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x >= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// parkIdle is the sweep period: each sweep retires the runners that
// stayed parked through the whole period, so an idle runner exits
// between one and two periods after its last fn.
const parkIdle = time.Second

var (
	// idle is unbuffered: a send succeeds only when a runner is parked
	// in receive, so Go never queues work behind a busy one. A nil fn
	// retires the runner that receives it.
	idle = make(chan func())
	// runners counts the live runners, parked the ones waiting on idle
	// and low the fewest parked at any moment since the last sweep.
	runners, parked, low atomic.Int64
	// sweeper fires every parkIdle while a runner is alive.
	sweeper *time.Timer
)

func init() {
	sweeper = time.AfterFunc(parkIdle, sweep)
	sweeper.Stop()
}

// Go runs fn on its own goroutine, as a go statement does, but starts
// it on a parked runner when one is idle, so per-request work runs on a
// stack an earlier fn already grew instead of regrowing a fresh one.
// Go never blocks and never queues: with no runner parked it starts a
// new one, so concurrency is exactly what a go statement gives and a fn
// that calls Go and waits for the inner fn cannot deadlock. Long-lived
// loops keep a plain go statement.
func Go(fn func()) {
	select {
	case idle <- fn:
	default:
		if runners.Add(1) == 1 {
			sweeper.Reset(parkIdle)
		}
		go park(fn)
	}
}

// park runs fn, then the fns handed to it through idle, until it
// receives nil. Parking is one plain receive: a timer per runner would
// cost each hand-off a two-channel select, as much as the go statement
// it saves.
func park(fn func()) {
	for fn != nil {
		fn()
		parked.Add(1)
		fn = <-idle
		atomicMin(&low, parked.Add(-1))
	}
	runners.Add(-1)
}

// sweep retires as many parked runners as stayed parked through the
// whole period since the last sweep, and comes back while any runner
// is alive.
func sweep() {
	for n := low.Swap(parked.Load()); n > 0; n-- {
		select {
		case idle <- nil:
		default:
			n = 0 // every runner left is busy
		}
	}
	if runners.Load() > 0 {
		sweeper.Reset(parkIdle)
	}
}

// ForEachN invokes fn(i) for every i in [0, n), with at most workers
// invocations in flight. Indices are handed out in ascending order.
// workers <= 1 (or n <= 1) runs everything serially on the calling
// goroutine; otherwise the caller runs one of the workers loops and Go
// runs the others. fn must confine its writes to per-index state;
// ForEachN provides no other synchronization.
func ForEachN(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	f := &forEach{n: n, fn: fn}
	f.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		Go(f.worker)
	}
	f.loop()
	f.wg.Wait()
}

// forEach is one ForEachN call: the cursor its loops take indices from.
type forEach struct {
	next atomic.Int64
	wg   sync.WaitGroup
	n    int
	fn   func(int)
}

func (f *forEach) loop() {
	for i := int(f.next.Add(1) - 1); i < f.n; i = int(f.next.Add(1) - 1) {
		f.fn(i)
	}
}

func (f *forEach) worker() {
	defer f.wg.Done()
	f.loop()
}
