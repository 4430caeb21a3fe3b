package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"dlrmperf"
)

// pushJob enqueues one bare job (no result channel — these tests pop
// directly off the queue and never run a worker).
func pushJob(t *testing.T, q *fairQueue, tenant, priority string) *job {
	t.Helper()
	j := &job{req: Request{Tenant: tenant, Priority: priority}}
	j.pri, _ = priorityClass(priority)
	if err := q.push(context.Background(), j, false); err != nil {
		t.Fatalf("push(%s/%s): %v", tenant, priority, err)
	}
	return j
}

// TestFairQueueWRRWeights: with every class backlogged, each 7-dequeue
// round of the weighted round-robin serves exactly 4 high, 2 normal,
// 1 low — the static 4:2:1 schedule.
func TestFairQueueWRRWeights(t *testing.T) {
	q := newFairQueue(64, 64)
	for i := 0; i < 8; i++ {
		pushJob(t, q, "a", "high")
		pushJob(t, q, "b", "normal")
		pushJob(t, q, "c", "low")
	}
	for round := 0; round < 2; round++ {
		var counts [priClasses]int
		for i := 0; i < len(wrrPattern); i++ {
			j, ok := q.pop()
			if !ok {
				t.Fatal("queue closed unexpectedly")
			}
			counts[j.pri]++
		}
		if counts[priHigh] != 4 || counts[priNormal] != 2 || counts[priLow] != 1 {
			t.Fatalf("round %d served %d/%d/%d high/normal/low, want 4/2/1", round, counts[priHigh], counts[priNormal], counts[priLow])
		}
	}
}

// TestFairQueueEmptyClassesSkipped: the weights only bite under
// contention — a lone low-priority stream drains at full rate.
func TestFairQueueEmptyClassesSkipped(t *testing.T) {
	q := newFairQueue(16, 16)
	for i := 0; i < 5; i++ {
		pushJob(t, q, "solo", "low")
	}
	for i := 0; i < 5; i++ {
		j, ok := q.pop()
		if !ok || j.pri != priLow {
			t.Fatalf("dequeue %d = %v/%v, want the low-priority job", i, j, ok)
		}
	}
}

// TestFairQueuePopFromEveryCursor: from every cursor position and with
// every non-empty set of classes occupied, pop serves the first
// occupied class wrrPattern names from the cursor on and leaves the
// cursor just past that position. Every class is in the pattern, so a
// non-empty queue always yields a job within one pass.
func TestFairQueuePopFromEveryCursor(t *testing.T) {
	names := [priClasses]string{priHigh: "high", priNormal: "normal", priLow: "low"}
	for cursor := range wrrPattern {
		for occupied := 1; occupied < 1<<priClasses; occupied++ {
			q := newFairQueue(8, 8)
			q.cursor = cursor
			for c := 0; c < priClasses; c++ {
				if occupied&(1<<c) != 0 {
					pushJob(t, q, "t", names[c])
				}
			}
			want, next := -1, 0
			for i := range wrrPattern {
				pos := (cursor + i) % len(wrrPattern)
				if occupied&(1<<wrrPattern[pos]) != 0 {
					want, next = int(wrrPattern[pos]), (pos+1)%len(wrrPattern)
					break
				}
			}
			j, ok := q.pop()
			if !ok {
				t.Fatalf("cursor %d, classes %03b: queue closed", cursor, occupied)
			}
			if int(j.pri) != want || q.cursor != next {
				t.Errorf("cursor %d, classes %03b: pop = class %d, cursor %d; want class %d, cursor %d",
					cursor, occupied, j.pri, q.cursor, want, next)
			}
		}
	}
}

// TestFairQueueTenantStarvation is the queue-level starvation bound: a
// hot tenant with a 10x backlog cannot push a background tenant's jobs
// to the back — tenant round-robin serves the background jobs within
// two dequeues each of their enqueue position, regardless of backlog.
func TestFairQueueTenantStarvation(t *testing.T) {
	q := newFairQueue(64, 48)
	for i := 0; i < 20; i++ {
		pushJob(t, q, "hot", "")
	}
	bg := map[*job]bool{
		pushJob(t, q, "bg", ""): true,
		pushJob(t, q, "bg", ""): true,
	}
	for i := 0; i < 4; i++ {
		j, ok := q.pop()
		if !ok {
			t.Fatal("queue closed unexpectedly")
		}
		delete(bg, j)
	}
	if len(bg) != 0 {
		t.Fatalf("%d background jobs still queued after 4 dequeues behind a 20-deep hot backlog", len(bg))
	}
}

// TestFairQueueTenantCap: a tenant over its share is shed with
// ErrTenantLimited while the queue has room, and other tenants keep
// admitting; a globally full queue sheds with ErrQueueFull.
func TestFairQueueTenantCap(t *testing.T) {
	q := newFairQueue(4, 2)
	pushJob(t, q, "hog", "")
	pushJob(t, q, "hog", "")
	j := &job{req: Request{Tenant: "hog"}}
	if err := q.push(context.Background(), j, false); err != ErrTenantLimited {
		t.Fatalf("hog over share: err = %v, want ErrTenantLimited", err)
	}
	pushJob(t, q, "quiet", "")
	pushJob(t, q, "quiet", "")
	j = &job{req: Request{Tenant: "third"}}
	if err := q.push(context.Background(), j, false); err != ErrQueueFull {
		t.Fatalf("globally full: err = %v, want ErrQueueFull", err)
	}
	var st Stats
	q.snapshot(&st)
	tenants := st.Tenants
	if tenants["hog"].Shed != 1 || tenants["third"].Shed != 1 || tenants["quiet"].Shed != 0 {
		t.Fatalf("shed ledger = hog %d / third %d / quiet %d, want 1/1/0",
			tenants["hog"].Shed, tenants["third"].Shed, tenants["quiet"].Shed)
	}
}

// TestFairQueueTenantOverflowFolds: tenants past the tracking bound
// fold into the shared overflow bucket instead of growing the ledger
// without bound.
func TestFairQueueTenantOverflowFolds(t *testing.T) {
	q := newFairQueue(1<<20, 1<<20)
	for i := 0; i < maxTrackedTenants+10; i++ {
		pushJob(t, q, fmt.Sprintf("t-%d", i), "")
	}
	q.mu.Lock()
	n := len(q.tenants)
	over := q.tenants[overflowTenant]
	q.mu.Unlock()
	if n > maxTrackedTenants+1 {
		t.Fatalf("ledger grew to %d tenants, bound is %d (+overflow)", n, maxTrackedTenants)
	}
	if over == nil || over.requests != 10 {
		t.Fatalf("overflow bucket = %+v, want 10 folded requests", over)
	}
}

// TestAdaptiveRetryAfterHint: the backpressure hint tracks backlog ×
// smoothed service time across the worker pool, clamped to
// [MinRetryAfter, MaxRetryAfter], and falls back to the floor before
// any request has completed.
func TestAdaptiveRetryAfterHint(t *testing.T) {
	q := newFairQueue(8, 8)
	if got := q.drainEstimate(1); got != 0 {
		t.Fatalf("estimate with no observation = %v, want 0", got)
	}
	q.observeService(100*time.Millisecond, false)
	if got := q.drainEstimate(1); got != 0 {
		t.Fatalf("estimate with no backlog = %v, want 0", got)
	}
	for i := 0; i < 4; i++ {
		pushJob(t, q, "t", "")
	}
	if got := q.drainEstimate(1); got != 400*time.Millisecond {
		t.Fatalf("estimate(1 worker) = %v, want 400ms", got)
	}
	if got := q.drainEstimate(2); got != 200*time.Millisecond {
		t.Fatalf("estimate(2 workers) = %v, want 200ms", got)
	}

	s := &Server{cfg: Config{Workers: 1}, q: q}
	// 4 × 100ms backlog is under the floor.
	if got := s.retryAfterHint(); got != MinRetryAfter {
		t.Fatalf("hint under floor = %v, want the %v floor", got, MinRetryAfter)
	}
	// A slow service observation pushes the estimate past the ceiling.
	q.observeService(time.Hour, false)
	if got := s.retryAfterHint(); got != MaxRetryAfter {
		t.Fatalf("hint over ceiling = %v, want the %v cap", got, MaxRetryAfter)
	}
}

// slowBackend makes every request cost a fixed service time, so queues
// build under flood and queue waits are measurable.
type slowBackend struct {
	*fakeBackend
	delay time.Duration
}

func (b *slowBackend) PredictContext(ctx context.Context, req dlrmperf.PredictRequest) dlrmperf.PredictResult {
	time.Sleep(b.delay)
	return b.fakeBackend.PredictContext(ctx, req)
}

// TestTenantFairnessUnderFlood is the server-level starvation test: a
// hot tenant flooding at 10x the background tenant's volume cannot
// starve it — with tenant round-robin the background tenant's WORST
// queue wait stays at or below the hot tenant's median, instead of
// queuing behind the entire hot backlog.
func TestTenantFairnessUnderFlood(t *testing.T) {
	fb := newFakeBackend()
	close(fb.release)
	s := New(Config{Backend: &slowBackend{fakeBackend: fb, delay: 2 * time.Millisecond}, QueueDepth: 64, Workers: 1, TenantQueueCap: 48})
	defer s.Drain()

	const hotN, bgN = 40, 4
	hotWaits := make(chan int64, hotN)
	bgWaits := make(chan int64, bgN)
	var wg sync.WaitGroup
	for i := 0; i < hotN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Submit(context.Background(), Request{Workload: fmt.Sprintf("h%d", i), Device: "FakeGPU", Tenant: "hot"})
			if err == nil && res.Error == "" {
				hotWaits <- res.QueueWaitUs
			}
		}(i)
	}
	// Let the hot backlog build before the background tenant shows up —
	// the worst case for it.
	waitFor(t, func() bool { return s.Stats().Queue.Depth >= 16 })
	for i := 0; i < bgN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Submit(context.Background(), Request{Workload: fmt.Sprintf("b%d", i), Device: "FakeGPU", Tenant: "bg"})
			if err == nil && res.Error == "" {
				bgWaits <- res.QueueWaitUs
			}
		}(i)
	}
	wg.Wait()
	close(hotWaits)
	close(bgWaits)

	var hot, bg []int64
	for w := range hotWaits {
		hot = append(hot, w)
	}
	for w := range bgWaits {
		bg = append(bg, w)
	}
	if len(hot) != hotN || len(bg) != bgN {
		t.Fatalf("served %d hot / %d bg, want %d/%d", len(hot), len(bg), hotN, bgN)
	}
	sort.Slice(hot, func(i, j int) bool { return hot[i] < hot[j] })
	sort.Slice(bg, func(i, j int) bool { return bg[i] < bg[j] })
	hotP50, bgMax := hot[len(hot)/2], bg[len(bg)-1]
	if bgMax > hotP50 {
		t.Fatalf("background worst wait %dus exceeds hot median %dus: hot tenant starved the background tenant", bgMax, hotP50)
	}
	st := s.Stats()
	assertInvariant(t, st)
	if st.Tenants["hot"].Served != hotN || st.Tenants["bg"].Served != bgN {
		t.Fatalf("tenant ledger served = hot %d / bg %d, want %d/%d", st.Tenants["hot"].Served, st.Tenants["bg"].Served, hotN, bgN)
	}
}

// TestInvariantUnderTenantLoad mixes tenants, priorities, blocking and
// non-blocking admission, and validation rejects, then asserts both the
// global accounting identity and the per-tenant ledger identity
// (requests == served + shed + canceled, nothing left queued) at
// quiescence. Run under -race this is the fairness data-race check.
func TestInvariantUnderTenantLoad(t *testing.T) {
	fb := newFakeBackend()
	close(fb.release)
	s := New(Config{Backend: fb, QueueDepth: 8, Workers: 2, TenantQueueCap: 4})
	defer s.Drain()

	tenants := []string{"", "acme", "globex", "initech"}
	priorities := []string{"", "high", "low", "normal"}
	const clients, perClient = 12, 40
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				req := Request{Workload: "dup", Device: "FakeGPU", Tenant: tenants[(c+i)%len(tenants)], Priority: priorities[i%len(priorities)]}
				if i%5 == 0 {
					req.Workload = "reject"
				}
				if c%2 == 0 {
					s.Submit(context.Background(), req)
				} else {
					s.TrySubmit(context.Background(), req)
				}
			}
		}(c)
	}
	wg.Wait()

	st := s.Stats()
	assertInvariant(t, st)
	if st.Requests != clients*perClient {
		t.Fatalf("requests = %d, want %d", st.Requests, clients*perClient)
	}
	var ledger uint64
	for name, ts := range st.Tenants {
		if ts.Queued != 0 {
			t.Errorf("tenant %s still has %d queued at quiescence", name, ts.Queued)
		}
		if got := ts.Served + ts.Shed + ts.Canceled; got != ts.Requests {
			t.Errorf("tenant %s ledger broken: served %d + shed %d + canceled %d = %d, requests %d",
				name, ts.Served, ts.Shed, ts.Canceled, got, ts.Requests)
		}
		ledger += ts.Requests
	}
	if ledger != st.Requests {
		t.Fatalf("tenant ledgers sum to %d, server received %d", ledger, st.Requests)
	}
	if _, ok := st.Tenants[defaultTenant]; !ok {
		t.Fatal("untagged traffic missing from the ledger under the default tenant")
	}
}
