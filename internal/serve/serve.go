// Package serve is the async HTTP serving layer over the prediction
// engine: a bounded admission queue with backpressure, a worker pool
// draining it into the engine's concurrent predict path, per-request
// deadlines threaded down as context cancellation, and a graceful
// drain for clean shutdown. It is the layer that turns the one-shot
// batch driver into a long-lived service: identical in-flight
// scenarios still collapse through the engine's singleflight and
// result cache, so an open-ended request stream pays for each distinct
// scenario once.
//
// Admission is tenant-fair: requests carry an optional tenant tag and
// priority class ("high"/"normal"/"low"), the queue bounds each
// tenant's share of its capacity, and dequeue order is weighted
// round-robin across classes and round-robin across tenants within a
// class — one hot client cannot starve the queue (see fair.go). The
// Retry-After hint on 429/503 adapts to the observed drain rate.
//
// Endpoints (see Handler):
//
//	POST /v1/predict        one request  -> one result row (429 when the queue is full)
//	POST /v1/predict/batch  request list -> batch report (admission blocks instead of 429ing)
//	POST /v1/explore        grid spec    -> design-space sweep report (frontier, coverage, throughput)
//	GET  /v1/scenarios      registered scenario names
//	GET  /healthz           liveness (503 while draining)
//	GET  /stats             admission/stream/cache/asset counters
package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dlrmperf"
	"dlrmperf/internal/xsync"
)

// Backend is the engine surface the server drives — implemented by
// *dlrmperf.Engine, narrowed to an interface so stream tests can
// substitute a controllable fake.
type Backend interface {
	PredictContext(ctx context.Context, req dlrmperf.PredictRequest) dlrmperf.PredictResult
	CacheStats() (hits, misses uint64)
	RejectedRequests() uint64
	AssetStats() dlrmperf.AssetStats
	StreamStats() dlrmperf.StreamStats
	Devices() []string
	CalibrationRuns(device string) int
}

// AssetLoader is the optional backend surface behind
// POST /v1/assets/install: installing a serialized calibration asset
// payload (Engine.SaveAssets bytes) so the device it covers serves
// warm without recalibrating — the cluster's hand-off path when a
// device's rendezvous home dies. *dlrmperf.Engine implements it; a
// backend that does not gets a 501 from the endpoint.
type AssetLoader interface {
	LoadAssets(data []byte) error
}

// Config parameterizes a Server.
type Config struct {
	Backend Backend
	// QueueDepth bounds the admission queue; a full queue rejects
	// non-blocking admissions with ErrQueueFull (HTTP 429). Default 64.
	QueueDepth int
	// Workers is the number of requests executed concurrently (the
	// drain width of the queue). Default runtime.GOMAXPROCS.
	Workers int
	// RequestTimeout is the default per-request deadline (0 = none);
	// a request's TimeoutMs can only tighten it. The clock starts at
	// admission, so time spent queued counts against the deadline.
	RequestTimeout time.Duration
	// TenantQueueCap bounds one tenant's share of the admission queue.
	// Default half of QueueDepth (minimum 1), so a single hot tenant
	// always leaves room for others to be admitted. Values above
	// QueueDepth are clamped to it.
	TenantQueueCap int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.TenantQueueCap <= 0 {
		c.TenantQueueCap = c.QueueDepth / 2
		if c.TenantQueueCap < 1 {
			c.TenantQueueCap = 1
		}
	}
	if c.TenantQueueCap > c.QueueDepth {
		c.TenantQueueCap = c.QueueDepth
	}
	return c
}

// ErrQueueFull rejects a non-blocking admission when the queue is at
// capacity — the backpressure signal behind HTTP 429.
var ErrQueueFull = errors.New("serve: admission queue full")

// ErrTenantLimited rejects a non-blocking admission when the request's
// tenant has exhausted its fair share of the queue while the queue
// itself still has room — also HTTP 429, but attributable to the hot
// tenant rather than global load.
var ErrTenantLimited = errors.New("serve: tenant queue share exhausted")

// ErrDraining rejects admissions while the server drains — the signal
// behind HTTP 503 during shutdown.
var ErrDraining = errors.New("serve: server draining")

// job is one admitted request traveling the queue. Jobs are pooled:
// admit owns a job until it has either received the result (enqueued
// path) or failed before the queue send (never seen by any worker), so
// returning it to the pool at those points can never race a worker.
// The done channel is buffered and drained before reuse.
type job struct {
	ctx  context.Context
	req  Request
	done chan Result

	// Fair-queue state: the canonical tenant (stamped by push), the
	// priority class, when the job entered the queue, and the queue
	// wait the dequeue measured (surfaced as Result.QueueWaitUs).
	tenant     string
	pri        uint8
	enqueuedAt time.Time
	waitNs     int64
}

var jobPool = sync.Pool{
	New: func() any { return &job{done: make(chan Result, 1)} },
}

// putJob clears a job's per-request state and returns it to the pool.
func putJob(j *job) {
	j.ctx = nil
	j.req = Request{}
	j.tenant = ""
	j.pri = 0
	j.enqueuedAt = time.Time{}
	j.waitNs = 0
	jobPool.Put(j)
}

// Server owns the admission queue and worker pool over one Backend.
type Server struct {
	cfg Config
	q   *fairQueue

	workers sync.WaitGroup

	// admitMu guards draining against jobs.Add, so Drain cannot start
	// waiting while an admission is between its draining check and its
	// queue send.
	admitMu  sync.Mutex
	draining bool
	jobs     sync.WaitGroup
	closed   sync.Once

	received             atomic.Uint64
	queueFullRejects     atomic.Uint64
	tenantLimitedRejects atomic.Uint64
	drainingRejects      atomic.Uint64
	canceledAdmits       atomic.Uint64
	assetInstalls        atomic.Uint64
}

// New starts a server's worker pool over the backend. Callers must
// Drain it when done.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, q: newFairQueue(cfg.QueueDepth, cfg.TenantQueueCap)}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

func (s *Server) worker() {
	defer s.workers.Done()
	for {
		j, ok := s.q.pop()
		if !ok {
			return
		}
		start := time.Now()
		res := s.serveOne(j)
		s.q.observeService(time.Since(start))
		j.done <- res
	}
}

// serveOne executes one admitted request against the backend. The
// job's context already carries the effective deadline (applied at
// admission), so a request that spent its whole budget queued fails
// fast inside the engine instead of computing past its deadline.
func (s *Server) serveOne(j *job) Result {
	res := resultFrom(j.req, s.cfg.Backend.PredictContext(j.ctx, j.req.ToPredict()))
	res.QueueWaitUs = j.waitNs / 1e3
	return res
}

// requestContext applies the request's effective deadline — the
// smaller of the server default and the request's own timeout_ms —
// starting now (admission time), so queue wait counts against it.
func (s *Server) requestContext(ctx context.Context, req Request) (context.Context, context.CancelFunc) {
	timeout := s.cfg.RequestTimeout
	if req.TimeoutMs > 0 {
		if rt := time.Duration(req.TimeoutMs) * time.Millisecond; timeout <= 0 || rt < timeout {
			timeout = rt
		}
	}
	if timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, timeout)
}

// admit pushes one request through the fair queue and waits for its
// result. With wait=false a violated bound fails fast with
// ErrQueueFull (or ErrTenantLimited when only the tenant's share is
// exhausted); with wait=true admission blocks until space frees
// (backpressure by blocking — the batch path), failing with the
// context error if the caller expires first (counted as a canceled
// admission, distinct from queue-full: the client gave up, which can
// happen even with queue space free).
func (s *Server) admit(ctx context.Context, req Request, wait bool) (Result, error) {
	s.received.Add(1)
	s.admitMu.Lock()
	if s.draining {
		s.admitMu.Unlock()
		s.drainingRejects.Add(1)
		return Result{}, ErrDraining
	}
	s.jobs.Add(1)
	s.admitMu.Unlock()

	if ctx == nil {
		ctx = context.Background() //lint:allow ctxflow nil-ctx API fallback; requestContext layers the queue timeout on top either way
	}
	ctx, cancel := s.requestContext(ctx, req)
	defer cancel()
	j := jobPool.Get().(*job)
	j.ctx, j.req = ctx, req
	j.pri, _ = priorityClass(req.Priority) // unknown strings already 400ed at the HTTP boundary; fall back to normal here
	if err := s.q.push(ctx, j, wait); err != nil {
		putJob(j) // never enqueued: no worker can hold it
		s.jobs.Done()
		switch {
		case errors.Is(err, ErrQueueFull):
			s.queueFullRejects.Add(1)
		case errors.Is(err, ErrTenantLimited):
			s.tenantLimitedRejects.Add(1)
		default: // ctx expired while blocked on admission
			s.canceledAdmits.Add(1)
		}
		return Result{}, err
	}
	// The worker always delivers exactly one result (done is buffered,
	// and workers drain every queued job before Drain stops them), and
	// the job's context carries the deadline from admission, so this
	// wait is bounded by the request's own deadline even while queued.
	// After the receive the worker is done with the job (it sends as its
	// last touch), so it can be recycled.
	res := <-j.done
	putJob(j)
	s.jobs.Done()
	return res, nil
}

// TrySubmit admits one request without blocking: a full queue returns
// ErrQueueFull immediately. This is the POST /v1/predict path.
func (s *Server) TrySubmit(ctx context.Context, req Request) (Result, error) {
	return s.admit(ctx, req, false)
}

// Submit admits one request, blocking while the queue is full. This is
// the batch and one-shot path: a file of requests applies backpressure
// by waiting instead of shedding load.
func (s *Server) Submit(ctx context.Context, req Request) (Result, error) {
	return s.admit(ctx, req, true)
}

// RunBatch drives a request list through the admission pipeline and
// returns one row per request, in request order. Admission failures
// (draining, caller expiry) surface in the failing row. Submitters are
// bounded the way RunExplore's are — enough to keep every worker busy
// with a full queue behind it, not one goroutine per row.
func (s *Server) RunBatch(ctx context.Context, reqs []Request) []Result {
	out := make([]Result, len(reqs))
	xsync.ForEachN(len(reqs), s.cfg.Workers+s.cfg.QueueDepth, func(i int) {
		res, err := s.Submit(ctx, reqs[i])
		if err != nil {
			res = Result{Request: reqs[i], Error: err.Error()}
		}
		out[i] = res
	})
	return out
}

// Run serves a whole request list and assembles its report — the
// shared spine of the one-shot driver and POST /v1/predict/batch.
func (s *Server) Run(ctx context.Context, reqs []Request) *Report {
	start := time.Now()
	results := s.RunBatch(ctx, reqs)
	return NewReport(results, time.Since(start))
}

// Drain gracefully stops the server: new admissions are rejected with
// ErrDraining, every admitted request (queued or executing) finishes
// and is delivered, then the workers exit. Drain is idempotent and
// safe to call concurrently.
func (s *Server) Drain() {
	s.admitMu.Lock()
	s.draining = true
	s.admitMu.Unlock()
	s.jobs.Wait()
	s.closed.Do(func() { s.q.close() })
	s.workers.Wait()
}

// Draining reports whether the server has started draining.
func (s *Server) Draining() bool {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	return s.draining
}

// Stats assembles the live counters of the admission queue, the
// engine's stream/cache counters, and the asset store.
//
// The snapshot is built from independent atomic loads, so its
// invariant (Accounted() <= Requests on every snapshot, equality at
// quiescence) depends on read ORDER: every request increments the
// received total at admission, strictly before it can land in any
// terminal bucket (hit, miss, or a rejection). Loading all bucket
// counters first and the request total LAST therefore guarantees no
// bucket is ever observed ahead of the total that contains it —
// whereas the opposite order could observe a request's bucket without
// its admission and report hits+misses+rejected > requests under
// load. TestStatsSnapshotInvariantUnderLoad hammers exactly this.
func (s *Server) Stats() Stats {
	b := s.cfg.Backend
	// Terminal buckets first (monotonic counters, sinks)...
	validation := b.RejectedRequests()
	hits, misses := b.CacheStats()
	queueFull := s.queueFullRejects.Load()
	tenantLimited := s.tenantLimitedRejects.Load()
	draining := s.drainingRejects.Load()
	canceledAdmits := s.canceledAdmits.Load()
	ss := b.StreamStats()
	depth, peakDepth, tenants := s.q.snapshot()
	// ...the request total last (source).
	requests := s.received.Load()

	// Allocated only when a device actually calibrated: the snapshot is
	// polled, and a nil map marshals identically to an empty one under
	// omitempty.
	var cals map[string]int
	for _, d := range b.Devices() {
		if n := b.CalibrationRuns(d); n > 0 {
			if cals == nil {
				cals = make(map[string]int, 4)
			}
			cals[d] = n
		}
	}
	return Stats{
		Requests: requests,
		Served:   ss.Served,
		Canceled: ss.Canceled,
		Rejected: RejectedStats{
			Validation:    validation,
			QueueFull:     queueFull,
			TenantLimited: tenantLimited,
			Draining:      draining,
			Canceled:      canceledAdmits,
		},
		Queue: QueueStats{
			Depth:              depth,
			PeakDepth:          peakDepth,
			Capacity:           s.cfg.QueueDepth,
			Workers:            s.cfg.Workers,
			InFlight:           ss.InFlight,
			PeakInFlight:       ss.PeakInFlight,
			AvgServiceUs:       s.q.avgServiceUs(),
			RetryAfterHintSecs: int(s.retryAfterHint() / time.Second),
		},
		Latency: LatencyStats{
			AvgUs:   ss.AvgUs(),
			MaxUs:   ss.MaxUs,
			TotalUs: ss.TotalUs,
		},
		Cache:         CacheStats{Hits: hits, Misses: misses},
		Assets:        b.AssetStats(),
		Calibrations:  cals,
		Tenants:       tenants,
		AssetInstalls: s.assetInstalls.Load(),
		Draining:      s.Draining(),
	}
}

// Handler returns the HTTP surface of the server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/predict/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/explore", s.handleExplore)
	mux.HandleFunc("POST /v1/assets/install", s.handleInstallAssets)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

// retryAfterHint is the adaptive backpressure hint: the estimated
// backlog drain time (queued requests x smoothed service time /
// workers), clamped to [MinRetryAfter, MaxRetryAfter]. With no
// completed request yet (no drain-rate observation) it falls back to
// the floor.
func (s *Server) retryAfterHint() time.Duration {
	return min(max(s.q.drainEstimate(s.cfg.Workers), MinRetryAfter), MaxRetryAfter)
}

// retryAfterSeconds renders the adaptive backpressure hint, at least 1s.
func (s *Server) retryAfterSeconds() string {
	return RetryAfterSeconds(s.retryAfterHint())
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	req, ok := DecodeRequest(w, r)
	if !ok {
		return
	}
	res, err := s.TrySubmit(r.Context(), req)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		WriteJSON(w, http.StatusTooManyRequests, HTTPError{Code: "queue_full", Message: err.Error()})
	case errors.Is(err, ErrTenantLimited):
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		WriteJSON(w, http.StatusTooManyRequests, HTTPError{Code: "tenant_limited", Message: err.Error()})
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		WriteJSON(w, http.StatusServiceUnavailable, HTTPError{Code: "draining", Message: err.Error()})
	case err != nil:
		// Unreachable today — non-blocking admission fails only with the
		// two sentinels above — kept as a defensive catch-all so a future
		// admit error cannot masquerade as a 200.
		WriteJSON(w, http.StatusInternalServerError, HTTPError{Code: "internal", Message: err.Error()})
	default:
		WriteResult(w, &res)
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if reqs, ok := DecodeBatch(w, r); ok {
		WriteJSON(w, http.StatusOK, s.Run(r.Context(), reqs))
	}
}

// handleInstallAssets accepts a SaveAssets payload and installs it —
// the cluster warm hand-off target. Installs bypass the admission
// queue (control plane, not a prediction) but still respect the drain
// gate: a draining worker is leaving the routing set and must not
// accept new device ownership.
func (s *Server) handleInstallAssets(w http.ResponseWriter, r *http.Request) {
	al, ok := s.cfg.Backend.(AssetLoader)
	if !ok {
		WriteJSON(w, http.StatusNotImplemented, HTTPError{Code: "unsupported", Message: "backend cannot install assets"})
		return
	}
	if s.Draining() {
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		WriteJSON(w, http.StatusServiceUnavailable, HTTPError{Code: "draining", Message: ErrDraining.Error()})
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, HTTPError{Code: "bad_request", Message: err.Error()})
		return
	}
	if err := al.LoadAssets(data); err != nil {
		WriteJSON(w, http.StatusBadRequest, HTTPError{Code: "bad_assets", Message: err.Error()})
		return
	}
	s.assetInstalls.Add(1)
	WriteJSON(w, http.StatusOK, map[string]string{"status": "installed"})
}

func (s *Server) handleScenarios(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, dlrmperf.Scenarios())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}
