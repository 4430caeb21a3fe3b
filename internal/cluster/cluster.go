// Package cluster is the multi-process sharding layer over the PR-4
// serving stack: a coordinator that owns a worker registry (static
// list + self-registration with heartbeat liveness) and fans
// /v1/predict traffic out to per-device dlrmperf-serve worker
// processes by rendezvous hashing on the request's device — so each
// device calibrates on exactly one worker and its pinned calibration
// assets stay hot there — retrying a failed worker once on the
// next-ranked candidate before surfacing 502 worker_failed. A worker's
// 4xx, a 429 included, is not a failure: it goes back to the client
// exactly as the worker sent it (the same serve.StatusError, written by
// the same serve.WriteError), with no retry and no quarantine.
//
// The coordinator re-exports the worker HTTP surface unchanged
// (POST /v1/predict, POST /v1/predict/batch, POST /v1/explore,
// GET /v1/scenarios, GET /healthz, GET /stats), validating requests at
// its own boundary exactly as a worker does, plus
// POST /v1/workers/register and POST /v1/workers/assets for worker
// heartbeats, and its /stats merges the per-worker cache/asset/stream
// counters into one attempt-accounted document whose invariant — hits
// + misses + rejected == requests — holds cluster-wide (see stats.go
// for the accounting model). A pass-through result cache (ResultCache:
// the engine's fingerprint result cache through dlrmperf.Engine's
// RemoteResult, ResidentResult and InstallRemoteResult) answers repeats
// of identical scenarios at the coordinator without a network round
// trip.
//
// A batch call (and every chunk of an explore sweep) is planned once:
// rows resident in the cache are answered at the coordinator, the rest
// are grouped by their device's rendezvous owner and sent as one
// blocking sub-batch per worker; each missed row then completes on the
// single-request path, collecting from its owner's sub-batch on its
// first attempt, so failover and accounting stay per row.
//
// The control plane is four primitives: one liveness table (live.go)
// under both the worker Registry and the peer Lease, one periodic loop
// (every) under the worker heartbeat and the peer probes, one
// replicated apply-only entry with one peer endpoint (lease.go), and
// one detached-background helper (detach) under every replication
// send and drain push.
//
// Forwarding and failover run under the caller's deadline, so the
// package is held to the ctxflow analyzer: minting a fresh context
// would detach work from the caller's deadline and from SIGTERM drain.
//
//lint:ctxflow
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"dlrmperf"
	"dlrmperf/internal/client"
	"dlrmperf/internal/serve"
	"dlrmperf/internal/xsync"
)

// ResultCache is the coordinator's pass-through cache surface —
// implemented by *dlrmperf.Engine — narrowed to an interface so tests
// can substitute or disable it. The coordinator caches answers, not
// rows: every value it stores is an answer, what a hit returns of a
// worker's row besides the request envelope, which each hit re-stamps.
// It has three methods. RemoteResult is the read-through: a resident
// answer, or one fetch shared by identical concurrent requests and
// stored under the request's identity. ResidentResult is its
// resident-only half — the batch path asks it for every row of a call
// before any row is sent, and a row it does not have moves no counter.
// InstallRemoteResult seeds an entry without executing a fetch — the
// replication ingest path, so a result fetched through ANY peer
// coordinator is a local hit here on the next repeat of the same
// scenario fingerprint — and reports whether it installed: a row for a
// request no worker would serve is refused.
type ResultCache interface {
	RemoteResult(ctx context.Context, req dlrmperf.PredictRequest, fetch func() (any, error)) (v any, hit bool, err error)
	ResidentResult(req dlrmperf.PredictRequest) (v any, ok bool)
	InstallRemoteResult(req dlrmperf.PredictRequest, v any) bool
}

// Config parameterizes a Coordinator.
type Config struct {
	// Registry is the worker set (required).
	Registry *Registry
	// Cache is the pass-through result cache (required).
	Cache ResultCache
	// Client performs worker HTTP calls. The default is
	// client.NewHTTPClient keeping fanout idle connections per worker,
	// so a full batch fan-out reuses its connections instead of dialing.
	Client *http.Client
	// Self is this coordinator's own base URL as peers reach it —
	// required when Peers is non-empty, ignored otherwise.
	Self string
	// Peers lists the OTHER coordinators in a replicated control plane
	// (base URLs). Non-empty enables the leader lease, registration
	// forwarding, and result/asset replication; empty (the default)
	// keeps the single-coordinator behavior exactly. Peer liveness uses
	// the Registry's window and clock.
	Peers []string
}

// The coordinator's own bounds; its body, batch and grid limits and its
// Retry-After range are the worker's (serve.MaxBodyBytes, serve.MaxBatch,
// serve.MaxGrid, serve.MinRetryAfter, serve.MaxRetryAfter).
const (
	// fanout bounds concurrently routed batch rows.
	fanout = 16
	// statsTimeout bounds each worker's /stats fetch during aggregation,
	// and every detached background send.
	statsTimeout = 5 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Client == nil {
		c.Client = client.NewHTTPClient(fanout)
	}
	return c
}

// ErrNoWorkers rejects a request that arrived with zero live workers:
// 503 no_workers.
var ErrNoWorkers = serve.Refusal(http.StatusServiceUnavailable, "no_workers", "cluster: no live workers")

// ErrDraining rejects admissions while the coordinator drains: 503
// draining.
var ErrDraining = serve.Refusal(http.StatusServiceUnavailable, "draining", "cluster: coordinator draining")

// rowError carries a worker-computed failure row (validation errors,
// deadline expiries) through the cache layer without storing it: the
// row still reaches the client, but a failed prediction is never
// cached.
type rowError struct{ row serve.Result }

func (e rowError) Error() string { return e.row.Error }

// answer is what the pass-through cache keeps of a worker's row: every
// field a hit returns besides the Request envelope it re-stamps, the
// worker's CacheHit and QueueWaitUs included. A failed row is never
// cached, so there is no Error either. It is a third of a row's size.
type answer struct {
	e2eUs             float64
	activeUs          float64
	cpuUs             float64
	gpusUsed          int
	scalingEfficiency float64
	allReduceUs       float64
	allToAllUs        float64
	shardImbalance    float64
	cacheHit          bool
	queueWaitUs       int64
}

// answerOf takes the answer out of a successful worker row.
func answerOf(row *serve.Result) answer {
	return answer{
		e2eUs:             row.E2EUs,
		activeUs:          row.ActiveUs,
		cpuUs:             row.CPUUs,
		gpusUsed:          row.GPUsUsed,
		scalingEfficiency: row.ScalingEfficiency,
		allReduceUs:       row.AllReduceUs,
		allToAllUs:        row.AllToAllUs,
		shardImbalance:    row.ShardImbalance,
		cacheHit:          row.CacheHit,
		queueWaitUs:       row.QueueWaitUs,
	}
}

// row rebuilds the wire row under req's envelope.
func (a answer) row(req serve.Request) serve.Result {
	return serve.Result{
		Request:           req,
		E2EUs:             a.e2eUs,
		ActiveUs:          a.activeUs,
		CPUUs:             a.cpuUs,
		GPUsUsed:          a.gpusUsed,
		ScalingEfficiency: a.scalingEfficiency,
		AllReduceUs:       a.allReduceUs,
		AllToAllUs:        a.allToAllUs,
		ShardImbalance:    a.shardImbalance,
		CacheHit:          a.cacheHit,
		QueueWaitUs:       a.queueWaitUs,
	}
}

// ApproxBytes is the answer's resident size, by which the engine's
// result store meters it.
func (a answer) ApproxBytes() int64 { return int64(unsafe.Sizeof(a)) }

// Coordinator routes client requests across the registry's workers.
type Coordinator struct {
	cfg Config
	reg *Registry

	// lease is the replicated-control-plane membership view; nil when
	// Config.Peers is empty (single-coordinator mode).
	lease *Lease
	// vault replicates every worker's exported calibration assets so a
	// device's new rendezvous home can be handed them on failover.
	vault *assetVault
	// repl tracks the goroutines detach started (replication sends,
	// drain pushes) so Drain can wait them out.
	repl sync.WaitGroup

	// admitMu guards draining against inflight.Add, exactly like the
	// worker-side admission gate: Drain cannot start waiting while a
	// request is between its draining check and its inflight add.
	admitMu  sync.Mutex
	draining bool
	inflight sync.WaitGroup

	received        atomic.Uint64
	localHits       atomic.Uint64
	workerFailed    atomic.Uint64
	noWorkers       atomic.Uint64
	drainingRejects atomic.Uint64

	// hintUs is the EWMA of worker 429 Retry-After hints (microseconds),
	// feeding the adaptive tier hint. Zero until a hint is observed.
	hintUs atomic.Int64

	migrations           atomic.Uint64
	migrationFailures    atomic.Uint64
	peerResultsInstalled atomic.Uint64

	routedMu sync.Mutex
	routed   map[string]uint64
}

// New returns a coordinator over the registry.
func New(cfg Config) *Coordinator {
	if cfg.Registry == nil {
		panic("cluster: Config.Registry is required")
	}
	if cfg.Cache == nil {
		panic("cluster: Config.Cache is required")
	}
	c := &Coordinator{cfg: cfg.withDefaults(), reg: cfg.Registry, routed: map[string]uint64{}, vault: newAssetVault()}
	if len(c.cfg.Peers) > 0 {
		if c.cfg.Self == "" {
			panic("cluster: Config.Self is required with Peers")
		}
		c.lease = NewLease(c.cfg.Self, c.cfg.Peers, c.reg)
	}
	return c
}

// Draining reports whether the coordinator has started draining.
func (c *Coordinator) Draining() bool {
	c.admitMu.Lock()
	defer c.admitMu.Unlock()
	return c.draining
}

// admit counts one client request and takes its in-flight slot (the
// caller releases it), or tallies the reject of a draining coordinator.
func (c *Coordinator) admit() error {
	c.received.Add(1)
	c.admitMu.Lock()
	defer c.admitMu.Unlock()
	if c.draining {
		c.drainingRejects.Add(1)
		return ErrDraining
	}
	c.inflight.Add(1)
	return nil
}

// PredictOne serves one client request: local pass-through cache
// first, then rendezvous routing with one retry. blocking selects the
// worker admission mode — false forwards to the worker's non-blocking
// POST /v1/predict (backpressure 429s pass through), true to its
// blocking batch admission (the coordinator batch path, which must
// not shed rows).
func (c *Coordinator) PredictOne(ctx context.Context, req serve.Request, blocking bool) (serve.Result, error) {
	return c.predict(ctx, req, blocking, nil, 0)
}

// predict is PredictOne for a row that may already be on the wire: sb,
// when set, is the sub-batch RunBatch's plan sent to the row's owner,
// carrying the row in slot.
func (c *Coordinator) predict(ctx context.Context, req serve.Request, blocking bool, sb *subBatch, slot int) (serve.Result, error) {
	if err := c.admit(); err != nil {
		return serve.Result{}, err
	}
	defer c.inflight.Done()

	fetch := func() (any, error) {
		row, err := c.forward(ctx, req, blocking, sb, slot)
		if err != nil {
			return nil, err
		}
		if row.Error != "" {
			return nil, rowError{row}
		}
		return answerOf(&row), nil
	}
	v, hit, err := c.cfg.Cache.RemoteResult(ctx, req.ToPredict(), fetch)
	if err != nil {
		var re rowError
		if errors.As(err, &re) {
			// A worker-computed failure row: already accounted worker-side,
			// delivered to the client like any other row.
			return re.row, nil
		}
		return serve.Result{}, err
	}
	// The cached answer carries no envelope; this caller's own goes on.
	row := v.(answer).row(req)
	if hit {
		c.localHits.Add(1)
		row.CacheHit = true
		return row, nil
	}
	// This caller executed the fetch (hit covers both cache reads and
	// flight joins), so it is the one copy of the result that peers don't
	// have yet. The fetch WAS the origin's apply — RemoteResult cached the
	// answer here — so only the replication is left: the worker's row as
	// fetched, the answer under the request the worker echoed, so every
	// coordinator caches the same answer a repeat would fetch. Copies,
	// because the entry's pointers escape: pointing at req itself would
	// heap-allocate it on every call, hits included.
	origin, raw := req, row
	c.replicate(entry{Request: &origin, Row: &raw})
	return row, nil
}

// forward routes one request to the top-ranked live worker for its
// device, retrying once on the next-ranked candidate after a failure.
// MarkFailed removes the failed worker from the live set, so the
// re-rank of the survivors IS the next-ranked candidate list —
// rendezvous hashing guarantees keys on surviving workers don't move.
// A row the plan already sent (sb) spends its first attempt collecting
// from that sub-batch — the plan ranked its device and warmed its owner
// — and retries alone like any other row.
func (c *Coordinator) forward(ctx context.Context, req serve.Request, blocking bool, sb *subBatch, slot int) (serve.Result, error) {
	var lastErr error
	const maxAttempts = 2
	for attempt := 0; attempt < maxAttempts; attempt++ {
		var w Worker
		if sb != nil {
			w = sb.w
		} else {
			ranked := Rank(c.reg.Live(), req.Device)
			if len(ranked) == 0 {
				if lastErr != nil {
					break // candidates exhausted mid-retry: a route failure, not "no workers"
				}
				c.noWorkers.Add(1)
				return serve.Result{}, ErrNoWorkers
			}
			w = ranked[0]
			// Warm hand-off: if this worker is about to inherit a device whose
			// calibration assets were exported by a (now dead or out-ranked)
			// different home, install them before the first request lands.
			c.ensureWarm(ctx, req.Device, w)
		}
		c.routedMu.Lock()
		c.routed[w.ID]++
		c.routedMu.Unlock()
		row, err := c.call(ctx, w, req, blocking, sb, slot)
		if err == nil {
			return row, nil
		}
		var refused *serve.StatusError
		if errors.As(err, &refused) && refused.Status >= 400 && refused.Status < 500 {
			// The worker refused the REQUEST — a 4xx is a verdict on the
			// input, and every other worker would return the same one — or,
			// with a 429, asked its caller to slow down, which a healthy
			// worker does. Either goes back to the client exactly as the
			// worker sent it, with no retry and no failure mark: quarantining
			// healthy workers over a client's bad input would let one hostile
			// request take the cluster's routing set down, and re-routing
			// backpressure off the affine worker would break affinity.
			if refused.Status == http.StatusTooManyRequests {
				c.observeWorkerHint(refused.RetryAfter)
			}
			return serve.Result{}, refused
		}
		if ctx.Err() != nil {
			// The CLIENT died (canceled or timed out mid-call), which
			// says nothing about the worker: do not quarantine it — that
			// would break device affinity and force a re-calibration on
			// the next-ranked worker — and do not count a worker
			// failure. If the request reached the worker, the worker's
			// own canceled/miss accounting covers it.
			return serve.Result{}, routeErrorf("worker %s: %w", w.ID, err)
		}
		c.workerFailed.Add(1)
		c.reg.MarkFailed(w.ID)
		lastErr = routeErrorf("worker %s: %w", w.ID, err)
		sb = nil // the retry ranks again and asks alone
	}
	// The 502 names the last attempt's cause but does not wrap it: a
	// worker's own 5xx is not the coordinator's answer.
	return serve.Result{}, serve.Refusal(http.StatusBadGateway, "worker_failed",
		routeErrorf("cluster: %d routing attempt(s) failed: %v", maxAttempts, lastErr).Error())
}

// routeErrorf formats the error of a routing attempt that failed. The
// routed path is held to the steady-state rules (no fmt, see the hotpath
// analyzer); a failed attempt has left it.
//
//lint:hotpath stop formats the error of a routing attempt that failed
func routeErrorf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

// workerClient wraps one worker URL in the typed client, sharing the
// coordinator's transport. Construction is a struct fill and one parse
// of the URL (the one the call itself used to pay) — the network round
// trip it fronts dwarfs it — so per-call construction beats a URL-keyed
// cache.
func (c *Coordinator) workerClient(url string) *client.Client {
	return client.New(url, client.WithHTTPClient(c.cfg.Client))
}

// subBatch is one worker's share of a batch call: the rows bound for
// it, sent in ONE blocking POST /v1/predict/batch (a 1-row sub-batch is
// how a lone blocking row rides the worker's BLOCKING admission path:
// batch rows must apply backpressure by waiting, never shed). rep and
// err are final once done is closed.
type subBatch struct {
	w    Worker
	reqs []serve.Request
	done chan struct{}
	rep  serve.Report
	err  error
}

// send performs the sub-batch's POST under the call's context.
func (c *Coordinator) send(ctx context.Context, sb *subBatch) {
	defer close(sb.done)
	sb.err = c.workerClient(sb.w.URL).PredictBatchInto(ctx, sb.reqs, &sb.rep)
}

// row waits for the POST and returns the row in slot. A failed POST
// fails every row of the sub-batch the same way, each on its own
// attempt.
func (sb *subBatch) row(slot int) (serve.Result, error) {
	<-sb.done
	if sb.err != nil {
		return serve.Result{}, sb.err
	}
	if len(sb.rep.Results) != len(sb.reqs) {
		return serve.Result{}, routeErrorf("worker batch report has %d rows, want %d", len(sb.rep.Results), len(sb.reqs))
	}
	row := sb.rep.Results[slot]
	// A draining worker reports its admission rejection as a 200 row
	// with the drain sentinel in Error. That is a routing failure,
	// not a prediction verdict: surface it as an error so the
	// forward loop fails over to the survivor — batch rows must
	// never terminally fail just because their affine worker is
	// shutting down.
	if row.Error == serve.ErrDraining.Error() {
		return serve.Result{}, routeErrorf("worker draining: %s", row.Error)
	}
	return row, nil
}

// call performs one worker attempt through the typed client.
func (c *Coordinator) call(ctx context.Context, w Worker, req serve.Request, blocking bool, sb *subBatch, slot int) (serve.Result, error) {
	if blocking {
		if sb == nil {
			sb, slot = &subBatch{w: w, reqs: []serve.Request{req}, done: make(chan struct{})}, 0
			c.send(ctx, sb)
		}
		return sb.row(slot)
	}
	return c.workerClient(w.URL).Predict(ctx, req)
}

// missed is one row the plan could not answer from the cache: its index
// in the call and, when the plan sent it, the sub-batch and slot
// carrying it.
type missed struct {
	i    int
	sb   *subBatch
	slot int
}

// plan reads a batch call once: rows resident in the pass-through cache
// are answered into out on the spot (admitted and counted as local hits
// one by one, as PredictOne would), each distinct device of the rest is
// ranked once and its owner warmed, and the rest go out as ONE
// sub-batch per owner. The sends wait for no row and no row waits for
// another: a row that then joins another call's flight, or is resident
// after all, leaves its slot unread. A draining coordinator plans
// nothing, so each row is refused by its own admission.
//
// Every row of every batch call is read, and its hit answered, here.
//
//lint:hotpath root
func (c *Coordinator) plan(ctx context.Context, reqs []serve.Request, out []serve.Result) (miss []missed, sends map[string]*subBatch) {
	draining := c.Draining()
	byDevice, sends := map[string]*subBatch{}, map[string]*subBatch{} // sends by worker ID
	for i := range reqs {
		req := &reqs[i]
		if !draining {
			if v, ok := c.cfg.Cache.ResidentResult(req.ToPredict()); ok {
				out[i] = c.localHit(v.(answer), req)
				continue
			}
		}
		sb, ranked := byDevice[req.Device]
		if !ranked && !draining {
			if r := Rank(c.reg.Live(), req.Device); len(r) > 0 {
				c.ensureWarm(ctx, req.Device, r[0])
				if sb = sends[r[0].ID]; sb == nil {
					sb = &subBatch{w: r[0], done: make(chan struct{})}
					sends[r[0].ID] = sb
				}
			}
			byDevice[req.Device] = sb // nil with no live worker: the row reports that itself
		}
		m := missed{i: i, sb: sb}
		if sb != nil {
			m.slot = len(sb.reqs)
			sb.reqs = append(sb.reqs, *req)
		}
		miss = append(miss, m)
	}
	for _, sb := range sends {
		xsync.Go(func() { c.send(ctx, sb) })
	}
	return miss, sends
}

// localHit answers one planned row from the cached answer a: the row's
// own admission, its own envelope, one local hit.
func (c *Coordinator) localHit(a answer, req *serve.Request) serve.Result {
	if err := c.admit(); err != nil {
		return serve.Result{Request: *req, Error: err.Error()}
	}
	c.inflight.Done() // nothing of a hit stays in flight
	c.localHits.Add(1)
	row := a.row(*req)
	row.CacheHit = true
	return row
}

// RunBatch routes a request list across the cluster and returns one
// row per request in request order; routing failures surface in the
// failing row. The call is planned once (plan); each row the plan could
// not answer then completes through predict — validate-before-cache,
// store-once, replication, per-row failover and accounting all live
// there — with bounded fan-out, collecting from its owner's sub-batch
// on its first attempt.
func (c *Coordinator) RunBatch(ctx context.Context, reqs []serve.Request) []serve.Result {
	out := make([]serve.Result, len(reqs))
	miss, sends := c.plan(ctx, reqs, out)
	xsync.ForEachN(len(miss), fanout, func(j int) {
		m := miss[j]
		res, err := c.predict(ctx, reqs[m.i], true, m.sb, m.slot)
		if err != nil {
			res = serve.Result{Request: reqs[m.i], Error: err.Error()}
		}
		out[m.i] = res
	})
	for _, sb := range sends {
		<-sb.done // a sub-batch nobody read still ends before the call does
	}
	return out
}

// Report is the coordinator's batch response: the worker's own report
// shape.
type Report = serve.Report

// Run serves a whole request list and assembles its report. It asks the
// workers for nothing but rows: the cluster's counters and the
// device-affinity ledger are GET /stats.
func (c *Coordinator) Run(ctx context.Context, reqs []serve.Request) *Report {
	start := time.Now()
	results := c.RunBatch(ctx, reqs)
	return serve.NewReport(results, time.Since(start))
}

// Stats assembles the aggregated cluster document: the coordinator's
// own buckets plus every live worker's /stats snapshot (fetched
// concurrently), merged under the attempt-accounting model. The
// coordinator buckets are read before the worker fetches and each
// worker snapshot is internally ordered (serve.Server.Stats), so
// Accounted() <= Requests holds on every aggregated snapshot too.
func (c *Coordinator) Stats(ctx context.Context) Stats {
	agg := Stats{
		Rejected: ClusterRejected{
			RejectedStats: serve.RejectedStats{Draining: c.drainingRejects.Load()},
			WorkerFailed:  c.workerFailed.Load(),
			NoWorkers:     c.noWorkers.Load(),
		},
		Coordinator: CoordinatorStats{
			Received:             c.received.Load(),
			LocalCacheHits:       c.localHits.Load(),
			Migrations:           c.migrations.Load(),
			MigrationFailures:    c.migrationFailures.Load(),
			PeerResultsInstalled: c.peerResultsInstalled.Load(),
		},
		Lease:    c.lease.Snapshot(),
		Vault:    c.vault.snapshot(),
		Draining: c.Draining(),
	}
	// Every coordinator-accounted attempt joins both sides of the
	// invariant: the bucket above and the request total here.
	agg.Requests = agg.Coordinator.LocalCacheHits + agg.Rejected.WorkerFailed +
		agg.Rejected.NoWorkers + agg.Rejected.Draining
	agg.Cache.Hits = agg.Coordinator.LocalCacheHits

	infos := c.reg.Snapshot()
	statuses := make([]WorkerStatus, len(infos))
	xsync.ForEachN(len(infos), 8, func(i int) {
		statuses[i] = c.workerStatus(ctx, infos[i])
	})
	for _, ws := range statuses {
		if ws.Stats != nil {
			agg.mergeWorker(ws.ID, *ws.Stats)
		}
	}
	agg.Workers = statuses
	return agg
}

// workerStatus fetches one worker's /stats snapshot (live workers
// only; a fetch failure is reported, not fatal).
func (c *Coordinator) workerStatus(ctx context.Context, info WorkerInfo) WorkerStatus {
	c.routedMu.Lock()
	routed := c.routed[info.ID]
	c.routedMu.Unlock()
	ws := WorkerStatus{WorkerInfo: info, Routed: routed}
	if !info.Live {
		return ws
	}
	sctx, cancel := context.WithTimeout(ctx, statsTimeout)
	defer cancel()
	st, err := c.workerClient(info.URL).Stats(sctx)
	if err != nil {
		ws.StatsError = err.Error()
		return ws
	}
	ws.Stats = &st
	return ws
}

// Drain gracefully stops the coordinator: new admissions reject with
// ErrDraining, every in-flight route finishes and is delivered, and —
// with propagate set — the drain is then pushed to the registered
// (non-static) live workers via POST /v1/drain, best-effort. Static
// workers are deliberately spared: they were configured from outside
// and may be shared with other coordinators.
func (c *Coordinator) Drain(propagate bool) {
	c.admitMu.Lock()
	c.draining = true
	c.admitMu.Unlock()
	c.inflight.Wait()
	if propagate {
		for _, w := range c.reg.Live() {
			if w.Static {
				continue
			}
			c.detach(func(ctx context.Context) {
				_ = c.workerClient(w.URL).Drain(ctx) // best-effort push
			})
		}
	}
	c.repl.Wait() // outstanding replication sends and drain pushes finish before shutdown
}

// detach runs fn on its own goroutine under a background context
// bounded by statsTimeout, tracked so Drain waits it out. It is the one
// place the coordinator starts work that must outlive the request (or
// the dying caller) that caused it: replication sends, the
// follower-to-leader registration forward, and drain pushes.
func (c *Coordinator) detach(fn func(ctx context.Context)) {
	c.repl.Add(1)
	go func() {
		defer c.repl.Done()
		//lint:allow ctxflow deliberately detached: the work must outlive the originating request's ctx, bounded by statsTimeout
		ctx, cancel := context.WithTimeout(context.Background(), statsTimeout)
		defer cancel()
		fn(ctx)
	}()
}

// Handler returns the coordinator's HTTP surface: the worker surface
// re-exported, plus worker self-registration.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", c.handlePredict)
	mux.HandleFunc("POST /v1/predict/batch", c.handleBatch)
	mux.HandleFunc("POST /v1/explore", c.handleExplore)
	mux.HandleFunc("POST /v1/workers/register", c.handleRegister)
	mux.HandleFunc("POST /v1/workers/assets", c.handleWorkerAssets)
	if c.lease != nil {
		mux.HandleFunc("POST /v1/peers/apply", c.handlePeerApply)
	}
	mux.HandleFunc("GET /v1/scenarios", func(w http.ResponseWriter, _ *http.Request) {
		serve.WriteJSON(w, http.StatusOK, dlrmperf.Scenarios())
	})
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /stats", c.handleStats)
	return mux
}

// observeWorkerHint folds one worker 429 Retry-After hint into the
// EWMA (alpha 1/4) behind the coordinator's adaptive hint (retryAfter).
//
// It runs on every worker 429.
//
//lint:hotpath root
func (c *Coordinator) observeWorkerHint(d time.Duration) {
	if d <= 0 {
		return
	}
	us := d.Microseconds()
	for {
		old := c.hintUs.Load()
		next := us
		if old > 0 {
			next = old + (us-old)/4
		}
		if c.hintUs.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfter is the coordinator's tier hint: the Retry-After of its
// own 503s (draining, no_workers) and of a worker 429 that carried
// none. It starts at the floor and adapts upward toward the workers'
// own observed 429 hints — a coordinator fronting saturated workers
// should not invite clients back sooner than the workers themselves
// would — clamped to [serve.MinRetryAfter, serve.MaxRetryAfter].
//
// It is rendered on every shed request.
//
//lint:hotpath root
func (c *Coordinator) retryAfter() time.Duration {
	hint := time.Duration(c.hintUs.Load()) * time.Microsecond
	return min(max(hint, serve.MinRetryAfter), serve.MaxRetryAfter)
}

// handlePredict routes POST /v1/predict: a resident hit leaves it
// without touching a worker, and the whole routed path runs under it.
//
//lint:hotpath root
func (c *Coordinator) handlePredict(w http.ResponseWriter, r *http.Request) {
	req, ok := serve.DecodeRequest(w, r)
	if !ok {
		return
	}
	res, err := c.PredictOne(r.Context(), req, false)
	if err != nil {
		serve.WriteError(w, err, c.retryAfter())
		return
	}
	serve.WriteResult(w, &res)
}

// handleBatch routes POST /v1/predict/batch: every batch call leaves
// through plan and the sub-batch sends under it.
//
//lint:hotpath root
func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	if reqs, ok := serve.DecodeBatch(w, r); ok {
		serve.WriteJSON(w, http.StatusOK, c.Run(r.Context(), reqs))
	}
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var reg serve.Registration
	if !serve.DecodeBody(w, r, &reg) || !c.share(w, entry{Registration: &reg}) {
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"ttl_ms":  c.reg.TTL().Milliseconds(),
		"workers": len(c.reg.Live()),
	})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	live := len(c.reg.Live())
	if c.Draining() {
		serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining", "workers": live})
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "workers": live})
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, c.Stats(r.Context()))
}
