package cluster

import (
	"context"
	"sync"
	"time"
)

// DefaultLiveness is the liveness window when none is configured: a
// registered worker — or a peer coordinator — with no proof of life
// for this long stops being routed to (or elected).
const DefaultLiveness = 6 * time.Second

// liveTable is the control plane's one liveness primitive: id -> last
// proof of life, judged against a window by an injectable clock.
// Liveness is computed on read — there is no background state to tend
// — so expiry tests (and an in-process simulation of the whole tier)
// advance the clock instead of sleeping. The worker Registry and the
// peer Lease each sit on one.
type liveTable struct {
	ttl time.Duration
	// now is the coordinator's single clock seam: the registry's table
	// owns it and every table derived with sibling reads through it.
	now func() time.Time

	mu   sync.Mutex
	seen map[string]time.Time
}

// newLiveTable returns an empty table on the wall clock (ttl <= 0
// selects DefaultLiveness).
func newLiveTable(ttl time.Duration) *liveTable {
	if ttl <= 0 {
		ttl = DefaultLiveness
	}
	return &liveTable{ttl: ttl, now: time.Now, seen: map[string]time.Time{}}
}

// sibling returns an empty table on t's window and t's clock, read at
// call time: swapping t.now moves every sibling with it.
func (t *liveTable) sibling() *liveTable {
	s := newLiveTable(t.ttl)
	s.now = func() time.Time { return t.now() }
	return s
}

// touch stamps id's proof of life with the current time.
func (t *liveTable) touch(id string) {
	now := t.now()
	t.mu.Lock()
	t.seen[id] = now
	t.mu.Unlock()
}

// lastSeen reports id's newest proof of life (zero: none) and whether
// it falls inside the window at now.
//
// The lease check and every routing decision's Registry.Live read
// liveness here.
//
//lint:hotpath root
func (t *liveTable) lastSeen(id string, now time.Time) (seen time.Time, live bool) {
	t.mu.Lock()
	seen = t.seen[id]
	t.mu.Unlock()
	return seen, !seen.IsZero() && now.Sub(seen) <= t.ttl
}

// ageMs renders a proof of life for the /stats snapshots: its age at
// now in milliseconds, -1 for none.
func ageMs(seen, now time.Time) int64 {
	if seen.IsZero() {
		return -1
	}
	return now.Sub(seen).Milliseconds()
}

// every is the control plane's one periodic loop: it runs fn
// immediately and then once per interval (default 2s) on its own
// goroutine until ctx is canceled or the returned stop is called. stop
// is idempotent and returns only after the loop has exited, so fn is
// never running once stop returns.
func every(ctx context.Context, interval time.Duration, fn func()) (stop func()) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		fn()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				fn()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}
