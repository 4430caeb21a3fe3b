package serve

import (
	"context"
	"sync"
	"time"
)

// Priority classes, highest first. The wire field is a string
// ("high", "normal"/"", "low"); priorityClass maps it onto these.
const (
	priHigh = iota
	priNormal
	priLow
	priClasses
)

// wrrPattern is the static weighted round-robin schedule across the
// priority classes when all are backlogged: high 4, normal 2, low 1
// per 7 dequeues. Empty classes are skipped, so the weights only bite
// under contention — a lone low-priority stream still gets the whole
// queue. No class weight is zero, so no class can be starved outright.
var wrrPattern = [...]uint8{priHigh, priNormal, priHigh, priLow, priHigh, priNormal, priHigh}

// priorityClass maps the wire priority field onto a class index. The
// second return reports whether the string was a known class — the
// HTTP boundary rejects unknown strings with 400, and internal callers
// fall back to normal.
func priorityClass(s string) (uint8, bool) {
	switch s {
	case "", "normal":
		return priNormal, true
	case "high":
		return priHigh, true
	case "low":
		return priLow, true
	}
	return priNormal, false
}

// defaultTenant names untagged traffic; overflowTenant pools tenants
// past the tracking bound so an adversarial tenant-per-request stream
// cannot grow the ledger (or the subqueue set) without bound.
const (
	defaultTenant     = "default"
	overflowTenant    = "~other"
	maxTrackedTenants = 256
)

func normalizeTenant(s string) string {
	if s == "" {
		return defaultTenant
	}
	return s
}

// subQueue is one tenant's FIFO within one priority class. The slice
// is reused as a ring-ish buffer: head chases the tail and both reset
// when the queue empties, so steady-state traffic stops allocating.
type subQueue struct {
	tenant string
	jobs   []*job
	head   int
}

func (sq *subQueue) push(j *job) { sq.jobs = append(sq.jobs, j) }

func (sq *subQueue) pop() *job {
	j := sq.jobs[sq.head]
	sq.jobs[sq.head] = nil
	sq.head++
	if sq.head == len(sq.jobs) {
		sq.jobs = sq.jobs[:0]
		sq.head = 0
	}
	return j
}

func (sq *subQueue) empty() bool { return sq.head == len(sq.jobs) }

// classQueue is one priority class: a round-robin ring over the
// tenants that currently have jobs queued at this priority, so within
// a class every tenant drains at the same rate regardless of backlog.
type classQueue struct {
	ring  []*subQueue
	next  int
	index map[string]*subQueue
}

func (cq *classQueue) enqueue(tenant string, j *job) {
	sq := cq.index[tenant]
	if sq == nil {
		if cq.index == nil {
			cq.index = map[string]*subQueue{}
		}
		sq = &subQueue{tenant: tenant}
		cq.index[tenant] = sq
	}
	if sq.empty() {
		cq.ring = append(cq.ring, sq)
	}
	sq.push(j)
}

// dequeue pops one job from the next tenant in the ring (nil when the
// class is empty). An emptied tenant leaves the ring in place — the
// element sliding into its slot is served next, preserving rotation
// order — and rejoins at the tail on its next enqueue.
func (cq *classQueue) dequeue() *job {
	if len(cq.ring) == 0 {
		return nil
	}
	if cq.next >= len(cq.ring) {
		cq.next = 0
	}
	sq := cq.ring[cq.next]
	j := sq.pop()
	if sq.empty() {
		cq.ring = append(cq.ring[:cq.next], cq.ring[cq.next+1:]...)
	} else {
		cq.next++
	}
	return j
}

// tenantCounters is one tenant's admission ledger, guarded by the fair
// queue's mutex. All durations measure queue wait only.
type tenantCounters struct {
	requests  uint64
	served    uint64
	shed      uint64
	canceled  uint64
	queued    int
	totalWait time.Duration
	maxWait   time.Duration
}

// serviceAlpha weights the exponential moving average of service time
// that feeds the adaptive Retry-After hint.
const serviceAlpha = 0.2

// fairQueue replaces the flat admission channel with per-tenant fair
// queuing under priority classes: a global capacity bound plus a
// per-tenant share bound at admission, weighted round-robin across
// classes and plain round-robin across tenants at dequeue. The
// external contract matches the channel it replaced — push blocks (or
// fails fast) on a full queue, pop blocks until a job or close-and-
// empty — so the Drain choreography in Server is unchanged.
type fairQueue struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	space    *sync.Cond

	classes   [priClasses]classQueue
	cursor    int
	total     int
	peak      int64
	capacity  int
	tenantCap int
	closed    bool

	tenants map[string]*tenantCounters

	// The service ledger: jobs on a worker now and at the high-water
	// mark, jobs run to completion and the subset whose context expired
	// (canceled), their total and longest service time, and its
	// smoothed value (zero until a job has completed).
	running, peakRunning     int64
	ran, canceled            uint64
	serviceTotal, serviceMax time.Duration
	ewmaServiceNs            float64
}

func newFairQueue(capacity, tenantCap int) *fairQueue {
	q := &fairQueue{
		capacity:  capacity,
		tenantCap: tenantCap,
		tenants:   map[string]*tenantCounters{},
	}
	q.notEmpty = sync.NewCond(&q.mu)
	q.space = sync.NewCond(&q.mu)
	return q
}

// tenantLocked resolves a tenant's counters, folding tenants past the
// tracking bound into the shared overflow bucket. Returns the
// canonical name the job queues under.
func (q *fairQueue) tenantLocked(name string) (string, *tenantCounters) {
	tc := q.tenants[name]
	if tc == nil {
		if len(q.tenants) >= maxTrackedTenants {
			name = overflowTenant
			tc = q.tenants[name]
		}
		if tc == nil {
			tc = &tenantCounters{}
			q.tenants[name] = tc
		}
	}
	return name, tc
}

// push admits one job under both bounds. With wait=false a violated
// bound fails fast — ErrTenantLimited when this tenant is over its
// share while the queue itself has room, ErrQueueFull otherwise. With
// wait=true push blocks until both bounds clear or ctx expires.
// Admission is gated by the Server's draining check before push, and
// close happens only after every admitted job finished, so push never
// runs on a closed queue.
func (q *fairQueue) push(ctx context.Context, j *job, wait bool) error {
	if wait {
		// Wake the cond wait when the caller gives up; Wait holds no
		// ordering with ctx.Done, so the loop rechecks ctx after every
		// wake.
		stop := context.AfterFunc(ctx, func() {
			q.mu.Lock()
			q.space.Broadcast()
			q.mu.Unlock()
		})
		defer stop()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	name, tc := q.tenantLocked(normalizeTenant(j.req.Tenant))
	j.tenant = name
	tc.requests++
	for q.total >= q.capacity || tc.queued >= q.tenantCap {
		if !wait {
			tc.shed++
			if tc.queued >= q.tenantCap && q.total < q.capacity {
				return ErrTenantLimited
			}
			return ErrQueueFull
		}
		if ctx.Err() != nil {
			tc.canceled++
			return ctx.Err()
		}
		q.space.Wait()
	}
	j.enqueuedAt = time.Now()
	q.classes[j.pri].enqueue(name, j)
	tc.queued++
	q.total++
	if int64(q.total) > q.peak {
		q.peak = int64(q.total)
	}
	q.notEmpty.Signal()
	return nil
}

// pop blocks until a job is available (fair-dequeued) or the queue is
// closed and empty. It stamps the job's queue wait and rolls it into
// the tenant ledger, and counts the job running, before handing it to
// the worker.
func (q *fairQueue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.total == 0 {
		if q.closed {
			return nil, false
		}
		q.notEmpty.Wait()
	}
	// The pattern names every class, so with total > 0 one pass from
	// any cursor finds a job.
	var j *job
	for i := 0; i < len(wrrPattern) && j == nil; i++ {
		j = q.classes[wrrPattern[q.cursor]].dequeue()
		q.cursor++
		if q.cursor == len(wrrPattern) {
			q.cursor = 0
		}
	}
	q.total--
	q.running++
	q.peakRunning = max(q.peakRunning, q.running)
	wait := time.Since(j.enqueuedAt)
	j.waitNs = wait.Nanoseconds()
	tc := q.tenants[j.tenant]
	tc.queued--
	tc.served++
	tc.totalWait += wait
	if wait > tc.maxWait {
		tc.maxWait = wait
	}
	// Broadcast, not Signal: waiters block on different predicates
	// (global capacity vs their own tenant's share), so a single
	// wakeup could land on a waiter whose bound is still violated and
	// strand one that could proceed.
	q.space.Broadcast()
	return j, true
}

// close wakes every blocked pop (and any push waiter) for shutdown;
// pops drain the remaining jobs first and then return false.
func (q *fairQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.notEmpty.Broadcast()
	q.space.Broadcast()
	q.mu.Unlock()
}

// observeService closes one popped job in the service ledger: its
// service time, and whether its context expired on the worker, fold
// into the totals and the drain-rate estimate.
func (q *fairQueue) observeService(d time.Duration, canceled bool) {
	q.mu.Lock()
	q.running--
	q.ran++
	if canceled {
		q.canceled++
	}
	q.serviceTotal += d
	q.serviceMax = max(q.serviceMax, d)
	if q.ewmaServiceNs == 0 {
		q.ewmaServiceNs = float64(d.Nanoseconds())
	} else {
		q.ewmaServiceNs += serviceAlpha * (float64(d.Nanoseconds()) - q.ewmaServiceNs)
	}
	q.mu.Unlock()
}

// drainEstimate predicts how long the current backlog needs to clear
// across the worker pool — the adaptive Retry-After signal. Zero means
// no observation (or no backlog) yet; the caller clamps it to
// [MinRetryAfter, MaxRetryAfter].
func (q *fairQueue) drainEstimate(workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.ewmaServiceNs == 0 || q.total == 0 {
		return 0
	}
	return time.Duration(float64(q.total) * q.ewmaServiceNs / float64(workers))
}

// snapshot fills the queue's part of a /stats document: the depth and
// its high-water mark, the service ledger, and the per-tenant ledger
// (nil before the first admission reaches the queue).
func (q *fairQueue) snapshot(st *Stats) {
	q.mu.Lock()
	defer q.mu.Unlock()
	st.Canceled = q.canceled
	st.Queue.Depth, st.Queue.PeakDepth = q.total, q.peak
	st.Queue.InFlight, st.Queue.PeakInFlight = q.running, q.peakRunning
	st.Queue.AvgServiceUs = q.ewmaServiceNs / 1e3
	st.Latency = LatencyStats{MaxUs: q.serviceMax.Microseconds(), TotalUs: q.serviceTotal.Microseconds()}
	if q.ran > 0 {
		st.Latency.AvgUs = float64(q.serviceTotal.Nanoseconds()) / 1e3 / float64(q.ran)
	}
	if len(q.tenants) == 0 {
		return
	}
	st.Tenants = make(map[string]TenantStats, len(q.tenants))
	for name, tc := range q.tenants {
		ts := TenantStats{
			Requests:    tc.requests,
			Served:      tc.served,
			Shed:        tc.shed,
			Canceled:    tc.canceled,
			Queued:      tc.queued,
			TotalWaitUs: tc.totalWait.Microseconds(),
			MaxWaitUs:   tc.maxWait.Microseconds(),
		}
		if tc.served > 0 {
			ts.AvgWaitUs = float64(ts.TotalWaitUs) / float64(tc.served)
		}
		st.Tenants[name] = ts
	}
}
