// Package engine is the concurrent calibration and prediction core of
// the reproduction: a device-keyed cache of the paper's two portable
// asset classes — calibrated kernel-model registries and host-overhead
// databases — behind a "calibrate once per device, predict anywhere"
// API.
//
// Assets are built lazily on first use. Concurrent requests for the
// same asset are deduplicated singleflight-style, so a burst of
// predictions against an uncalibrated device triggers exactly one
// calibration; everyone else blocks on it and shares the result.
// Calibration itself fans its per-kernel-family jobs out on a bounded
// worker pool (perfmodel.CalibrateParallel), and PredictBatch fans
// independent (workload, batch, device) requests out the same way.
// Everything stays bit-deterministic in the engine seed: per-device
// streams are derived as Seed + xrand.HashString(device), so no result
// depends on arrival order or scheduling.
package engine

import (
	"context"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/overhead"
	"dlrmperf/internal/perfmodel"
	"dlrmperf/internal/predict"
	"dlrmperf/internal/scenario"
	"dlrmperf/internal/sim"
	"dlrmperf/internal/xrand"
	"dlrmperf/internal/xsync"
)

// DeviceSalt is the per-device stream salt mixed into derived seeds so
// every device calibrates and measures from its own decorrelated
// stream. It is pinned to xrand.HashString: changing it re-seeds every
// historical figure.
func DeviceSalt(device string) uint64 { return xrand.HashString(device) }

// Options configures an Engine.
type Options struct {
	// Seed is the base seed of every derived stream. Zero is a valid
	// seed and is passed through untouched — callers wanting a default
	// (the facade uses 2022) apply it themselves.
	Seed uint64
	// SaltDeviceSeeds mixes xrand.HashString(device) into each device's
	// calibration seed, giving every device its own decorrelated stream.
	// Leave false to calibrate a device with the raw Seed (the
	// single-device facade pipeline's historical behavior).
	SaltDeviceSeeds bool
	// Calib is the per-device calibration template; its Seed field is
	// overridden per device.
	Calib perfmodel.CalibOptions
	// DLRMBatches are the batch sizes pooled into DLRM overhead
	// databases (default 512..4096).
	DLRMBatches []int64
	// CNNBatches are the CNN batch sizes (default 16/32/64).
	CNNBatches []int64
	// Iters is the measured-run iteration count (default 30).
	Iters int
	// Workers bounds concurrent calibration jobs and batched
	// predictions (default runtime.GOMAXPROCS).
	Workers int
	// ResultCacheSize caps the scenario-fingerprint-keyed prediction
	// result cache (default 512 entries; negative disables the cache —
	// the cold-path ablation).
	ResultCacheSize int
	// AssetCaps bounds the evictable asset classes of the engine's
	// unified store (runs, overhead DBs, graphs, compiled plans).
	// Calibrations are pinned and never evict.
	AssetCaps AssetCaps
}

// AssetCaps bounds the resident entry count of each evictable asset
// class. Zero fields select the defaults; negative values leave the
// class unbounded (the pre-bounded behavior, kept for ablations and
// baselines). Calibrations take no cap: warm-start installs and the
// "calibrate once per device" contract must survive arbitrary traffic,
// so that class is pinned.
type AssetCaps struct {
	// Runs caps memoized measured/profiled simulated runs (default 512).
	Runs int
	// Overheads caps per-workload and shared host-overhead databases
	// (default 128).
	Overheads int
	// Graphs caps built workload/scenario execution graphs, including
	// per-shard multi-GPU graphs (default 512).
	Graphs int
	// Plans caps compiled scenario plans — requests resolved once into
	// executable form (default 512). An evicted plan recompiles from the
	// graph class on next use and predicts identically.
	Plans int
}

func (c AssetCaps) withDefaults() AssetCaps {
	if c.Runs == 0 {
		c.Runs = 512
	}
	if c.Overheads == 0 {
		c.Overheads = 128
	}
	if c.Graphs == 0 {
		c.Graphs = 512
	}
	if c.Plans == 0 {
		c.Plans = 512
	}
	return c
}

func (o Options) withDefaults() Options {
	if len(o.DLRMBatches) == 0 {
		o.DLRMBatches = []int64{512, 1024, 2048, 4096}
	}
	if o.ResultCacheSize == 0 {
		o.ResultCacheSize = 512
	}
	if len(o.CNNBatches) == 0 {
		o.CNNBatches = []int64{16, 32, 64}
	}
	if o.Iters == 0 {
		o.Iters = 30
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	o.AssetCaps = o.AssetCaps.withDefaults()
	return o
}

// Engine owns the device-keyed asset cache.
type Engine struct {
	opts   Options
	flight group
	// calGate serializes whole-device calibrations, so concurrent first
	// uses of *different* devices queue instead of stacking full worker
	// pools on top of each other: total in-flight calibration work
	// stays bounded by Workers. Per-device dedup is the singleflight's
	// job; this bounds the cross-device case.
	calGate sync.Mutex

	mu        sync.Mutex
	calibRuns map[string]int // device -> calibrations actually executed
	// assetEpochs counts per-device asset mutations (calibration,
	// installs, overhead-DB collection) — the change signal a cluster
	// worker's asset sync uses to decide when a device's SaveAssets
	// snapshot is stale and must be re-pushed to the coordinator.
	assetEpochs map[string]uint64

	// store is the unified metered asset store: every memoized artifact
	// — calibrations (pinned), runs, overhead DBs, graphs, and finished
	// predictions — lives in one of its size-bounded classes.
	store *assetStore
	// results points at the store's result class; nil when the result
	// cache is disabled (negative ResultCacheSize).
	results *classStore
	// cacheHits/cacheMisses are the request-level result counters behind
	// CacheStats; rejected counts requests that failed validation before
	// reaching the compute path.
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	rejected    atomic.Uint64

	// Stream counters behind StreamStats: requests concurrently inside
	// Predict (and the high-water mark), requests completed, requests
	// abandoned by context cancellation, and wall-clock latency totals.
	// They are observability only — no prediction depends on them — so
	// the wall-clock reads do not break bit-determinism.
	inFlight     atomic.Int64
	peakInFlight atomic.Int64
	served       atomic.Uint64
	canceled     atomic.Uint64
	latencyUs    atomic.Int64
	maxLatencyUs atomic.Int64
}

// StreamStats is the engine's async-stream observability block: the
// number of requests currently inside the predict path, its high-water
// mark, completed/canceled totals, and wall-clock latency aggregates.
// Served equals CacheStats' hits+misses — every validated request is
// accounted exactly once, including ones whose caller abandoned the
// wait (Canceled, a subset of misses).
type StreamStats struct {
	InFlight     int64  `json:"in_flight"`
	PeakInFlight int64  `json:"peak_in_flight"`
	Served       uint64 `json:"served"`
	Canceled     uint64 `json:"canceled"`
	TotalUs      int64  `json:"total_latency_us"`
	MaxUs        int64  `json:"max_latency_us"`
}

// AvgUs is the mean per-request wall-clock latency in microseconds.
func (s StreamStats) AvgUs() float64 {
	if s.Served == 0 {
		return 0
	}
	return float64(s.TotalUs) / float64(s.Served)
}

// StreamStats returns the engine's async-stream counters.
func (e *Engine) StreamStats() StreamStats {
	return StreamStats{
		InFlight:     e.inFlight.Load(),
		PeakInFlight: e.peakInFlight.Load(),
		Served:       e.served.Load(),
		Canceled:     e.canceled.Load(),
		TotalUs:      e.latencyUs.Load(),
		MaxUs:        e.maxLatencyUs.Load(),
	}
}

// New returns an empty engine; no calibration runs until an asset is
// first requested.
func New(opts Options) *Engine {
	opts = opts.withDefaults()
	e := &Engine{
		opts:        opts,
		calibRuns:   map[string]int{},
		assetEpochs: map[string]uint64{},
		store:       newAssetStore(opts),
	}
	if opts.ResultCacheSize > 0 {
		e.results = e.store.class(classResult)
	}
	return e
}

// Options returns the resolved options.
func (e *Engine) Options() Options { return e.opts }

// seedFor derives the calibration seed of one device.
func (e *Engine) seedFor(device string) uint64 {
	if e.opts.SaltDeviceSeeds {
		return e.opts.Seed + DeviceSalt(device)
	}
	return e.opts.Seed
}

// runSeed derives the measured-run seed of one (device, batch, profiled)
// combination. The formula is shared with the historical experiments
// suite so every figure reproduces unchanged.
func (e *Engine) runSeed(device string, batch int64, profiled bool) uint64 {
	s := e.opts.Seed*3 + DeviceSalt(device) + uint64(batch)
	if profiled {
		s += 17
	}
	return s
}

// memo runs the cache-then-singleflight-then-cache dance for one keyed
// asset: hit the class's resident store, else share one execution of
// build among concurrent callers and store (and meter) its result.
// Eviction stays race-free because bounding lives inside the class
// store's lock while build dedup lives in the singleflight: a key
// evicted mid-burst is rebuilt exactly once, never torn.
//
// Counters follow the result-cache convention: a miss is a caller that
// actually built or joined a failed build; everything served from
// resident memory or a successful in-flight build counts as a hit.
func memo[T any](e *Engine, class assetClass, key string, build func() (T, error)) (T, error) {
	cs := e.store.class(class)
	if v, ok := cs.get(key); ok {
		cs.hits.Add(1)
		return v.(T), nil
	}
	executed := false
	got, err := e.flight.Do(key, func() (any, error) {
		if v, ok := cs.get(key); ok {
			return v, nil
		}
		executed = true
		v, err := build()
		if err != nil {
			return nil, err
		}
		cs.put(key, v, approxBytes(v))
		return v, nil
	})
	if err != nil {
		cs.misses.Add(1)
		var zero T
		return zero, err
	}
	if executed {
		cs.misses.Add(1)
	} else {
		cs.hits.Add(1)
	}
	return got.(T), nil
}

// Calibration returns the device's calibrated kernel models, running
// the parallel calibration on first use. Concurrent first uses
// calibrate once.
func (e *Engine) Calibration(device string) (*perfmodel.Calibration, error) {
	return memo(e, classCalibration, "cal/"+device, func() (*perfmodel.Calibration, error) {
		p, err := hw.ByName(device)
		if err != nil {
			return nil, err
		}
		opt := e.opts.Calib
		opt.Seed = e.seedFor(device)
		e.calGate.Lock()
		cal := perfmodel.CalibrateParallel(p.GPU, opt, e.opts.Workers)
		e.calGate.Unlock()
		e.mu.Lock()
		e.calibRuns[device]++
		e.assetEpochs[device]++
		e.mu.Unlock()
		return cal, nil
	})
}

// bumpAssetEpoch advances a device's asset-mutation counter.
func (e *Engine) bumpAssetEpoch(device string) {
	e.mu.Lock()
	e.assetEpochs[device]++
	e.mu.Unlock()
}

// AssetsEpoch reports a device's asset-mutation counter: it advances
// whenever the device calibrates, has assets installed, or collects an
// overhead database, so a SaveAssets snapshot taken at one epoch is
// current as long as the epoch has not moved.
func (e *Engine) AssetsEpoch(device string) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.assetEpochs[device]
}

// CalibratedDevices lists the devices with a resident calibration
// (executed or installed), sorted — the set whose SaveAssets export is
// cheap and worth replicating.
func (e *Engine) CalibratedDevices() []string {
	snap := e.store.class(classCalibration).snapshot()
	out := make([]string, 0, len(snap))
	for k := range snap {
		out = append(out, strings.TrimPrefix(k, "cal/"))
	}
	sort.Strings(out)
	return out
}

// Install seeds the device cache with an already-calibrated (or
// deserialized) asset, so later requests skip calibration — the
// warm-start path. Calibrations are pinned: an install survives any
// amount of traffic.
func (e *Engine) Install(device string, cal *perfmodel.Calibration) {
	e.store.class(classCalibration).put("cal/"+device, cal, approxBytes(cal))
	e.bumpAssetEpoch(device)
}

// InstallOverheads seeds the (device, workload) overhead cache.
// Installed databases are subject to the overheads-class LRU like any
// collected one; if evicted they rebuild from this engine's own runs.
func (e *Engine) InstallOverheads(device, workload string, db *overhead.DB) {
	e.store.class(classOverheads).put("db/"+device+"/"+workload, db, approxBytes(db))
	e.bumpAssetEpoch(device)
}

// CalibrationRuns reports how many calibrations actually executed for a
// device — at most 1 unless the cache was dropped; 0 after a warm
// start. It exists so callers (and tests) can observe singleflight
// dedup.
func (e *Engine) CalibrationRuns(device string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.calibRuns[device]
}

// Model returns the memoized built workload graph.
func (e *Engine) Model(name string, batch int64) (*models.Model, error) {
	key := "model/" + name + "/" + strconv.FormatInt(batch, 10)
	return memo(e, classGraph, key, func() (*models.Model, error) {
		return models.Build(name, batch)
	})
}

// Run returns the memoized measured (or profiled) simulated run of
// model at batch on device.
func (e *Engine) Run(device, model string, batch int64, profiled bool) (*sim.Result, error) {
	key := "run/" + device + "/" + model + "/" + strconv.FormatInt(batch, 10) + "/" + strconv.FormatBool(profiled)
	return memo(e, classRun, key, func() (*sim.Result, error) {
		p, err := hw.ByName(device)
		if err != nil {
			return nil, err
		}
		m, err := e.Model(model, batch)
		if err != nil {
			return nil, err
		}
		return sim.Run(m.Graph, sim.Config{
			Platform: p, Seed: e.runSeed(device, batch, profiled),
			Warmup: 5, Iters: e.opts.Iters, Profile: profiled, Workload: model,
		}), nil
	})
}

// BatchesFor returns the evaluation batch sizes of a model family.
func (e *Engine) BatchesFor(model string) []int64 {
	switch model {
	case models.NameResNet50, models.NameInceptionV3:
		return e.opts.CNNBatches
	case models.NameTransformer:
		return []int64{64, 128, 256}
	}
	return e.opts.DLRMBatches
}

// OverheadDB returns the per-workload host-overhead database for one
// model on one device, pooled over the family's evaluation batch sizes,
// profiling lazily on first use.
func (e *Engine) OverheadDB(device, model string) (*overhead.DB, error) {
	return memo(e, classOverheads, "db/"+device+"/"+model, func() (*overhead.DB, error) {
		c := overhead.NewCollector()
		for _, b := range e.BatchesFor(model) {
			r, err := e.Run(device, model, b, true)
			if err != nil {
				return nil, err
			}
			c.Add(r.Trace)
		}
		e.bumpAssetEpoch(device)
		return c.Finish(), nil
	})
}

// SharedOverheadDB pools overhead samples across all DLRM workloads on
// a device — the paper's shared database for large-scale prediction.
func (e *Engine) SharedOverheadDB(device string) (*overhead.DB, error) {
	return memo(e, classOverheads, "shared/"+device, func() (*overhead.DB, error) {
		c := overhead.NewCollector()
		for _, model := range models.DLRMNames() {
			for _, b := range e.opts.DLRMBatches {
				r, err := e.Run(device, model, b, true)
				if err != nil {
					return nil, err
				}
				c.Add(r.Trace)
			}
		}
		e.bumpAssetEpoch(device)
		return c.Finish(), nil
	})
}

// Predictor builds the paper's predictor for a device with the given
// overhead database, calibrating on first use.
func (e *Engine) Predictor(device string, db *overhead.DB) (*predict.Predictor, error) {
	cal, err := e.Calibration(device)
	if err != nil {
		return nil, err
	}
	return predict.New(cal.Registry, db), nil
}

// Request is one unit of batched prediction work: predict one scenario
// (workload spec + execution strategy) on one device.
type Request struct {
	Device   string        `json:"device"`
	Scenario scenario.Spec `json:"scenario"`
	// Shared selects the device's shared cross-DLRM overhead database
	// instead of the workload family's own.
	Shared bool `json:"shared,omitempty"`
}

// NewRequest wraps a built-in workload at one batch size into a
// single-device request — the pre-scenario request shape.
func NewRequest(device, workloadName string, batch int64) Request {
	return Request{Device: device, Scenario: scenario.Single(workloadName, batch)}
}

// Key is the request's cache identity: device, scenario fingerprint,
// and overhead-database mode.
func (r Request) Key() string {
	return string(r.appendKey(nil))
}

// appendKey appends the cache identity to b — the allocation-free Key
// used with pooled scratch buffers on the hot lookup path. The layout
// (device/fingerprint/shared=bool) is pinned: it keys resident results
// across engine restarts via warm-started stores.
func (r *Request) appendKey(b []byte) []byte {
	b = append(b, r.Device...)
	b = append(b, '/')
	b = r.Scenario.AppendFingerprint(b)
	if r.Shared {
		return append(b, "/shared=true"...)
	}
	return append(b, "/shared=false"...)
}

// keyBufPool recycles the scratch buffers behind appendKey so a cache
// hit builds its lookup key with zero heap allocations.
var keyBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 128); return &b },
}

// Result pairs a request with its prediction. For multi-device
// scenarios Multi carries the communication/scaling breakdown and Plan
// the embedding-table sharding assignment; both are shared, read-only
// views when the result came from the cache.
type Result struct {
	Request    Request
	Prediction predict.Prediction
	Multi      *predict.MultiGPUPrediction
	Plan       *scenario.Plan
	// CacheHit marks results served from the prediction result cache
	// (including joins on an identical in-flight request).
	CacheHit bool
	Err      error
}

// ScalingEfficiency reports the scenario's retained fraction of linear
// scaling: 1 for single-device results.
func (r Result) ScalingEfficiency() float64 {
	if r.Multi == nil {
		return 1
	}
	return r.Multi.ScalingEfficiency
}

// CacheStats returns the prediction result cache counters. A miss is a
// request that reached the compute path: one that actually computed, or
// one that joined an in-flight computation that failed. Everything
// served from memory — LRU hits and joins on an identical in-flight
// request that succeeded — counts as a hit. The invariant is
// hits + misses == requests served; requests rejected by validation are
// counted separately (RejectedRequests) and appear in neither counter.
func (e *Engine) CacheStats() (hits, misses uint64) {
	return e.cacheHits.Load(), e.cacheMisses.Load()
}

// RejectedRequests counts requests that failed scenario validation
// before reaching the compute path (and therefore the cache counters).
func (e *Engine) RejectedRequests() uint64 { return e.rejected.Load() }

// RejectRequest tallies a request a front end refused before it could
// become an engine request (the facade's device-set check and scenario
// resolution). Counting those here keeps the serving-layer invariant —
// hits + misses + rejected == requests dispatched — on every path.
func (e *Engine) RejectRequest() { e.rejected.Add(1) }

// CachedResults reports the resident result-cache entry count.
func (e *Engine) CachedResults() int {
	if e.results == nil {
		return 0
	}
	return e.results.len()
}

// AssetStats reports the unified asset store's per-class counters:
// resident entries against capacity, approximate resident bytes, and
// hit/miss/eviction totals. The results class mirrors the
// request-level CacheStats counters (so joins on in-flight requests are
// included), while its resident/bytes/eviction fields come from the
// store itself.
func (e *Engine) AssetStats() AssetStats {
	s := e.store.stats()
	for i := range s.Classes {
		if s.Classes[i].Class == classNames[classResult] {
			s.Classes[i].Hits = e.cacheHits.Load()
			s.Classes[i].Misses = e.cacheMisses.Load()
		}
	}
	return s
}

// Predict serves one request, building any missing assets on the way.
// Results are cached by scenario fingerprint: repeats are served from
// memory, and identical concurrent requests share one computation.
func (e *Engine) Predict(req Request) Result {
	return e.PredictCtx(context.Background(), req)
}

// PredictCtx is Predict with a caller deadline: when ctx expires the
// caller gets ctx.Err() immediately, but the computation it initiated
// (or joined) keeps running detached and lands in the result cache, so
// a canceled request never poisons the singleflight entry or wastes
// the work for the next identical request. Canceled requests count as
// cache misses (they reached the compute path without being served
// from memory) plus the separate StreamStats.Canceled counter, keeping
// hits + misses == requests served on every path. With the result
// cache disabled (negative ResultCacheSize) there is no flight to
// detach from: ctx is only observed at entry and the computation runs
// inline on the caller — the historical cold-ablation behavior.
func (e *Engine) PredictCtx(ctx context.Context, req Request) Result {
	res := Result{Request: req}
	if err := req.Scenario.Validate(); err != nil {
		e.rejected.Add(1)
		res.Err = err
		return res
	}
	start := time.Now() //lint:allow deterministic latency observability only; never feeds keys or fingerprints
	xsync.AtomicMax(&e.peakInFlight, e.inFlight.Add(1))
	defer func() {
		e.inFlight.Add(-1)
		us := time.Since(start).Microseconds()
		e.latencyUs.Add(us)
		xsync.AtomicMax(&e.maxLatencyUs, us)
		e.served.Add(1)
	}()
	if err := ctx.Err(); err != nil {
		e.cacheMisses.Add(1)
		e.canceled.Add(1)
		res.Err = err
		return res
	}
	if e.results == nil {
		c, err := e.predictScenario(req)
		e.cacheMisses.Add(1)
		if err != nil {
			res.Err = err
			return res
		}
		return res.fill(c, false)
	}
	kb := keyBufPool.Get().(*[]byte)
	buf := req.appendKey((*kb)[:0])
	if c, ok := e.results.getBytes(buf); ok {
		*kb = buf
		keyBufPool.Put(kb)
		e.cacheHits.Add(1)
		return res.fill(c.(cached), true)
	}
	// Miss: materialize the key once for the singleflight and the store.
	key := string(buf)
	*kb = buf
	keyBufPool.Put(kb)
	executed := false
	//lint:allow hotpath miss-path only: predictFast already served cache hits alloc-free above
	got, err := e.flight.DoCtx(ctx, "predict/"+key, func() (any, error) {
		if c, ok := e.results.get(key); ok {
			return c, nil
		}
		executed = true
		c, err := e.predictScenario(req)
		if err != nil {
			return nil, err
		}
		e.results.put(key, c, approxBytes(c))
		return c, nil
	})
	if err != nil {
		// The executing caller and every joiner of the failed flight
		// reached the compute path without being served from memory:
		// count them all as misses so hits+misses keeps equaling the
		// requests served even on error and cancellation paths.
		e.cacheMisses.Add(1)
		if ctx.Err() != nil && err == ctx.Err() {
			e.canceled.Add(1)
		}
		res.Err = err
		return res
	}
	if executed {
		e.cacheMisses.Add(1)
	} else {
		e.cacheHits.Add(1)
	}
	return res.fill(got.(cached), !executed)
}

// RemoteResult serves a request whose computation happens OUTSIDE this
// engine — the cluster coordinator's pass-through: workers compute,
// but repeats of an identical scenario are answered from this engine's
// fingerprint result cache without another network round trip. The
// request's Key() addresses the same results class as local
// predictions (under a "remote/" prefix, so locally computed entries
// and opaque remote payloads never collide), identical concurrent
// requests collapse through the same singleflight, and the counters
// follow Predict's conventions exactly: a hit is anything served from
// memory or a successful in-flight join, a miss anything that ran (or
// joined a failed) fetch, so CacheStats/StreamStats invariants hold
// unchanged for a cache-only engine that never calibrates. A fetch
// error is returned to every joiner and nothing is stored, so a
// transient worker failure never poisons the cache. ctx follows
// DoCtx's detached-execution contract: an expired caller abandons the
// wait while the fetch completes into the cache.
func (e *Engine) RemoteResult(ctx context.Context, req Request, fetch func() (any, error)) (v any, hit bool, err error) {
	start := time.Now() //lint:allow deterministic latency observability only; never feeds keys or fingerprints
	xsync.AtomicMax(&e.peakInFlight, e.inFlight.Add(1))
	defer func() {
		e.inFlight.Add(-1)
		us := time.Since(start).Microseconds()
		e.latencyUs.Add(us)
		xsync.AtomicMax(&e.maxLatencyUs, us)
		e.served.Add(1)
	}()
	if e.results == nil {
		v, err = fetch()
		e.cacheMisses.Add(1)
		return v, false, err
	}
	kb := keyBufPool.Get().(*[]byte)
	buf := append((*kb)[:0], "remote/"...)
	buf = req.appendKey(buf)
	if v, ok := e.results.getBytes(buf); ok {
		*kb = buf
		keyBufPool.Put(kb)
		e.cacheHits.Add(1)
		return v, true, nil
	}
	key := string(buf)
	*kb = buf
	keyBufPool.Put(kb)
	executed := false
	got, err := e.flight.DoCtx(ctx, key, func() (any, error) {
		if v, ok := e.results.get(key); ok {
			return v, nil
		}
		executed = true
		v, err := fetch()
		if err != nil {
			return nil, err
		}
		e.results.put(key, v, approxBytes(v))
		return v, nil
	})
	if err != nil {
		e.cacheMisses.Add(1)
		if ctx.Err() != nil && err == ctx.Err() {
			e.canceled.Add(1)
		}
		return nil, false, err
	}
	if executed {
		e.cacheMisses.Add(1)
		return got, false, nil
	}
	e.cacheHits.Add(1)
	return got, true, nil
}

// InstallRemoteResult seeds the fingerprint result cache with an
// externally computed value under the same "remote/" key RemoteResult
// would use — the coordinator replication path: a peer that fetched a
// row from a worker shares it, so a repeat hitting THIS engine is a
// hit without a worker round trip. No request counters move — a
// replicated entry is an install, not a served request — which keeps
// hits + misses + rejected == requests intact on every coordinator.
func (e *Engine) InstallRemoteResult(req Request, v any) {
	if e.results == nil {
		return
	}
	e.results.put("remote/"+req.Key(), v, approxBytes(v))
}

// fill copies a cached computation into the per-call result envelope.
func (r Result) fill(c cached, hit bool) Result {
	r.Prediction = c.pred
	r.Multi = c.multi
	r.Plan = c.plan
	r.CacheHit = hit
	return r
}

// PredictBatch fans the requests out across the worker pool and returns
// one result per request, in request order. Results are identical to
// calling Predict sequentially; each device still calibrates at most
// once, and duplicate scenarios compute at most once, no matter how
// many requests land concurrently.
func (e *Engine) PredictBatch(reqs []Request) []Result {
	return e.PredictBatchCtx(context.Background(), reqs)
}

// PredictBatchCtx is PredictBatch under a shared caller deadline: every
// request observes ctx the way PredictCtx does, so canceling the
// context abandons the whole batch without poisoning any in-flight
// computation.
//
// Warm requests — result-cache hits and validation rejections — are
// served inline on the calling goroutine before any fan-out, so a
// fully-warm batch never pays the worker pool's goroutine and channel
// traffic; only the requests that need computation are fanned out.
func (e *Engine) PredictBatchCtx(ctx context.Context, reqs []Request) []Result {
	out := make([]Result, len(reqs))
	var miss []int
	for i := range reqs {
		if !e.predictFast(ctx, &reqs[i], &out[i]) {
			miss = append(miss, i)
		}
	}
	if len(miss) == 0 {
		return out
	}
	xsync.ForEachN(len(miss), e.opts.Workers, func(j int) {
		out[miss[j]] = e.PredictCtx(ctx, reqs[miss[j]])
	})
	return out
}

// predictFast serves a request into *out if — and only if — no
// computation is needed: a validation rejection, or a result-cache
// hit. Its accounting is exactly PredictCtx's for those two outcomes
// (one rejection, or one hit + one served with latency recorded);
// anything else returns false with *out untouched, for PredictCtx to
// handle in full. Validation runs before the lookup because
// single-device identity drops the comm field: an invalid spec can
// alias a valid cached one. Pointer in, pointer out: the request and
// result structs are large enough that by-value passing shows up as
// copy traffic on warm batches.
func (e *Engine) predictFast(ctx context.Context, req *Request, out *Result) bool {
	if e.results == nil {
		return false
	}
	if err := req.Scenario.Validate(); err != nil {
		e.rejected.Add(1)
		out.Request = *req
		out.Err = err
		return true
	}
	if ctx.Err() != nil {
		// Cancellation accounting (miss + canceled) belongs to the slow
		// path, which re-observes ctx at entry.
		return false
	}
	start := time.Now() //lint:allow deterministic latency observability only; never feeds keys or fingerprints
	kb := keyBufPool.Get().(*[]byte)
	buf := req.appendKey((*kb)[:0])
	c, ok := e.results.getBytes(buf)
	*kb = buf
	keyBufPool.Put(kb)
	if !ok {
		return false
	}
	xsync.AtomicMax(&e.peakInFlight, e.inFlight.Add(1))
	e.cacheHits.Add(1)
	cc := c.(cached)
	out.Request = *req
	out.Prediction = cc.pred
	out.Multi = cc.multi
	out.Plan = cc.plan
	out.CacheHit = true
	e.inFlight.Add(-1)
	us := time.Since(start).Microseconds()
	e.latencyUs.Add(us)
	xsync.AtomicMax(&e.maxLatencyUs, us)
	e.served.Add(1)
	return true
}
