// Package engine is the concurrent calibration and prediction core of
// the reproduction: a device-keyed cache of the paper's two portable
// asset classes — calibrated kernel-model registries and host-overhead
// databases — behind a "calibrate once per device, predict anywhere"
// API.
//
// Everything the engine remembers is reached through ONE keyed lookup
// (Engine.lookup): a resident hit on a pooled byte key in the asset's
// class of the metered store (cache.go), else one singleflight
// execution (singleflight.go) that re-checks, builds, stores, and
// tells its caller whether it executed or joined. Calibrations, runs,
// overhead databases, graphs and finished predictions differ only in
// class, key and builder, so a burst of predictions
// against an uncalibrated device triggers exactly one calibration and
// identical concurrent requests compute once. A graph is remembered as
// its structure only — nodes and ops, keyed by everything but the batch
// size — and every request binds its batch to the shared structure by
// one shape propagation (Engine.graph), so requests that differ in
// batch alone build nothing. A scenario's shape (its shard plan and
// each device's structure) is remembered the same way, so they plan
// nothing either. The plan a request compiles into (plan.go) is not
// remembered at all: it shares its result's identity, so it
// could only be re-read after that result was evicted. Requests reach
// the lookup through ONE wrapper (Engine.request: validate, then key,
// then lookup, with the stream and hit/miss/canceled accounting around
// it) shared by PredictCtx and the coordinator's RemoteResult, so the
// two cannot disagree about a request's identity or verdict.
//
// Calibration itself fans its per-kernel-family jobs out on a bounded
// worker pool (perfmodel.Calibrate), and overhead collection
// pools its profiled runs on the same bound; concurrent requests come
// from the caller (the serving layer's admission pipeline). Everything
// stays bit-deterministic in the engine seed: per-device streams are
// derived as Seed + xrand.HashString(device), so no result depends on
// arrival order or scheduling.
//
// Cache keys are identities shared across processes, so the package is
// held to the deterministic analyzer: no wall clock, no global
// math/rand, no output in map order.
//
//lint:deterministic
package engine

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"dlrmperf/internal/graph"
	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/overhead"
	"dlrmperf/internal/perfmodel"
	"dlrmperf/internal/predict"
	"dlrmperf/internal/scenario"
	"dlrmperf/internal/sim"
	"dlrmperf/internal/xrand"
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
	// Calib is how every device calibrates; each device calibrates it
	// from its own seed, Seed + DeviceSalt(device).
	Calib perfmodel.CalibOptions
	// DLRMBatches are the batch sizes pooled into DLRM overhead
	// databases (default 512..4096).
	DLRMBatches []int64
	// CNNBatches are the CNN batch sizes (default 16/32/64).
	CNNBatches []int64
	// Iters is the measured-run iteration count (default 30).
	Iters int
	// Workers bounds concurrent calibration jobs and the profiled runs
	// pooled into one overhead database (default runtime.GOMAXPROCS).
	Workers int
}

func (o Options) withDefaults() Options {
	if len(o.DLRMBatches) == 0 {
		o.DLRMBatches = []int64{512, 1024, 2048, 4096}
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
	// predictions — lives in one of its size-bounded classes. The
	// request-level hit/miss counters behind CacheStats are the result
	// class's own.
	store *assetStore
	// rejected counts requests that failed validation before reaching
	// the compute path.
	rejected atomic.Uint64
}

// New returns an empty engine; no calibration runs until an asset is
// first requested.
func New(opts Options) *Engine {
	opts = opts.withDefaults()
	return &Engine{
		opts:        opts,
		calibRuns:   map[string]int{},
		assetEpochs: map[string]uint64{},
		store:       newAssetStore(),
	}
}

// Options returns the resolved options.
func (e *Engine) Options() Options { return e.opts }

// seedFor derives the calibration seed of one device.
func (e *Engine) seedFor(device string) uint64 {
	return e.opts.Seed + DeviceSalt(device)
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

// buildFn computes the value behind a key the lookup missed. It takes
// the engine and the request as arguments instead of closing over them
// so the request path can pass a method expression: a static func value
// costs a resident hit nothing, where a capturing closure is
// heap-allocated before the lookup has even run. The string-keyed asset
// classes get the same property from memo, which binds a typed builder
// to its argument only after a resident-only probe has missed.
type buildFn func(e *Engine, req *Request) (any, error)

// errNotResident answers a lookup that was asked for a resident value
// only (nil build) and found none.
var errNotResident = errors.New("engine: not resident")

// lookup is the engine's one keyed-lookup primitive. The key is prefix
// followed by req's cache identity (req may be nil: prefix is then the
// whole key), built in a pooled scratch buffer so a resident hit
// allocates nothing. A miss shares one execution of build among
// concurrent callers through the singleflight — the executing caller
// re-checks the store, builds, and stores — and hit reports whether
// this caller was served from memory (resident, or joined a flight
// that succeeded). Eviction stays race-free because bounding lives
// inside the class store's lock while build dedup lives in the
// singleflight: a key evicted mid-burst is rebuilt exactly once, never
// torn. ctx follows DoCtx: an expired caller abandons the wait while
// the build completes into the store.
//
// The class counters move exactly once per call: a miss is a caller
// that built or joined a failed build; everything served from memory
// is a hit. A nil build skips the flight: it asks for a resident value
// only, and a non-resident key returns errNotResident with no counter
// moved and nothing started.
//
// Every prediction takes it, hit or miss: it is a root of the
// steady-state predict path.
//
//lint:hotpath root
func (e *Engine) lookup(ctx context.Context, class assetClass, prefix string, req *Request, build buildFn) (v any, hit bool, err error) {
	cs := e.store.class(class)
	kb := keyBufPool.Get().(*[]byte)
	buf := append((*kb)[:0], prefix...)
	if req != nil {
		buf = req.AppendKey(buf)
	}
	v, hit = cs.getBytes(buf)
	var key string
	if !hit && build != nil {
		key = string(buf) // materialized once, for the flight and the store
	}
	*kb = buf
	keyBufPool.Put(kb)
	if hit {
		cs.hits.Add(1)
		return v, true, nil
	}
	if build == nil {
		return nil, false, errNotResident
	}
	executed, own := false, req.detach()
	v, err = e.flight.DoCtx(ctx, key, func() (any, error) {
		if v, ok := cs.get(key); ok {
			return v, nil
		}
		executed = true
		v, err := build(e, own)
		if err != nil {
			return nil, err
		}
		cs.put(key, v, approxBytes(v))
		return v, nil
	})
	// executed is only read once the flight is known to have finished
	// (err == nil): an abandoned wait leaves the closure running.
	if hit = err == nil && !executed; hit {
		cs.hits.Add(1)
	} else {
		cs.misses.Add(1)
	}
	return v, hit, err
}

// memo is lookup for the string-keyed asset classes, typed. The builder
// and its argument travel separately (a method expression or plain
// func, and a value) for the reason buildFn gives: a resident asset
// costs no closure, because the adapter binding the two is only made
// once a resident-only probe has missed. built reports whether this
// caller's build is the value now stored: it executed the flight, and
// the flight succeeded.
func memo[T, A any](e *Engine, class assetClass, key string, arg A, build func(*Engine, A) (T, error)) (v T, built bool, err error) {
	ctx := context.Background()
	a, hit, err := e.lookup(ctx, class, key, nil, nil)
	if err == errNotResident {
		a, hit, err = e.lookup(ctx, class, key, nil, func(e *Engine, _ *Request) (any, error) { return build(e, arg) })
	}
	if err != nil {
		return v, false, err
	}
	return a.(T), !hit, nil
}

// Calibration returns the device's calibrated kernel models, running
// the parallel calibration on first use. Concurrent first uses
// calibrate once.
func (e *Engine) Calibration(device string) (*perfmodel.Calibration, error) {
	cal, _, err := memo(e, classCalibration, "cal/"+device, device, (*Engine).calibrate)
	return cal, err
}

func (e *Engine) calibrate(device string) (*perfmodel.Calibration, error) {
	p, err := hw.ByName(device)
	if err != nil {
		return nil, err
	}
	e.calGate.Lock()
	cal := perfmodel.Calibrate(p.GPU, e.seedFor(device), e.opts.Calib, e.opts.Workers)
	e.calGate.Unlock()
	e.mu.Lock()
	e.calibRuns[device]++
	e.assetEpochs[device]++
	e.mu.Unlock()
	return cal, nil
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

// Model returns the built-in workload's execution graph at batch: a
// view of the "model/<name>" structure bound for the caller alone. The
// caller may Release it once it is done with it; the engine never
// does.
func (e *Engine) Model(name string, batch int64) (*models.Model, error) {
	m, err := e.graph("model/"+name, scenario.Single(name, batch), buildModel)
	if err != nil {
		return nil, err
	}
	return m.WithBatch(batch)
}

// buildModel builds a built-in workload's structure.
func buildModel(_ *Engine, s scenario.Spec) (*models.Model, error) {
	return structure(models.Build(s.Workload, s.Batch))
}

// structure turns a model a builder returned into the form the graphs
// class stores (graph.Graph.Unbind): no shape table and no slack, so a
// resident structure holds nothing that depends on the batch it was
// built at.
func structure(m *models.Model, err error) (*models.Model, error) {
	if err != nil {
		return nil, err
	}
	m.Graph.Unbind()
	return m, nil
}

// graph is the first of the two steps every family takes to an
// execution graph: build once, then bind. The graphs class holds one
// unbound structure per key (structure) — the key names everything but
// the batch size, and whichever batch asks first builds it from spec —
// and the caller binds its batch to that structure by one shape
// propagation (graph.Graph.WithBatch), so a batch size never seen
// before constructs no nodes and no ops. A bound view is equal to a
// from-scratch build at its batch and belongs to the caller that bound
// it (a plan, or through Engine.Model a run or Model's caller);
// structure and views are read-only. A plan releases its views after
// its walk (CompiledPlan.release) and a run its view after the
// simulation (memoRun), so the next bind reuses their shape tables; a
// view Model's caller holds is never released.
func (e *Engine) graph(key string, spec scenario.Spec, build func(*Engine, scenario.Spec) (*models.Model, error)) (*models.Model, error) {
	m, _, err := memo(e, classGraph, key, spec, build)
	return m, err
}

// runSpec names one simulated run — or, with batch and profiled unset,
// the device × model pair an overhead database pools its runs over.
type runSpec struct {
	device, model string
	batch         int64
	profiled      bool
}

// key names r's entry in the runs class.
func (r runSpec) key() string {
	return "run/" + r.device + "/" + r.model + "/" + strconv.FormatInt(r.batch, 10) + "/" + strconv.FormatBool(r.profiled)
}

// memoRun memoizes one run of r in the runs class: what simulate keeps
// of the simulation of r's graph under r's config.
func memoRun[T any](e *Engine, r runSpec, simulate func(*graph.Graph, sim.Config) T) (T, error) {
	v, _, err := memo(e, classRun, r.key(), r, func(e *Engine, r runSpec) (T, error) {
		p, err := hw.ByName(r.device)
		if err != nil {
			return *new(T), err
		}
		m, err := e.Model(r.model, r.batch)
		if err != nil {
			return *new(T), err
		}
		// What a run keeps holds nothing of its graph: the view goes back
		// for the next bind.
		defer m.Graph.Release()
		return simulate(m.Graph, sim.Config{
			Platform: p, Seed: e.runSeed(r.device, r.batch, r.profiled),
			Warmup: 5, Iters: e.opts.Iters, Profile: r.profiled, Workload: r.model,
		}), nil
	})
	return v, err
}

// Run returns the memoized measured simulated run of model at batch on
// device.
func (e *Engine) Run(device, model string, batch int64) (*sim.Result, error) {
	return memoRun(e, runSpec{device, model, batch, false}, sim.Run)
}

// Samples returns the memoized overhead samples of the profiled run of
// model at batch on device. The run leaves no trace: the simulator
// writes the samples as it goes, and they are all the engine keeps —
// until every database that pools them is resident (releaseRuns).
func (e *Engine) Samples(device, model string, batch int64) (*overhead.Samples, error) {
	return memoRun(e, runSpec{device, model, batch, true}, overhead.NewCollector().Profile)
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
	return e.overheads("db/"+device+"/"+model, runSpec{device: device, model: model})
}

// SharedOverheadDB pools overhead samples across all DLRM workloads on
// a device — the paper's shared database for large-scale prediction.
// Its first build also pools every DLRM family's own database
// (OverheadDB) from the same runs, which are then released.
func (e *Engine) SharedOverheadDB(device string) (*overhead.DB, error) {
	return e.overheads("shared/"+device, runSpec{device: device})
}

// overheads memoizes the database r names under key; the caller whose
// build was stored then releases the runs it pooled (releaseRuns). A
// shared database just built first pools each DLRM family's own from
// the same resident runs, through OverheadDB (a concurrent request for
// one joins its flight; a resident one is a hit), so every run is read
// by resident databases alone and released. Those builds only warm the
// cache: one that fails is retried when its family is first requested.
func (e *Engine) overheads(key string, r runSpec) (*overhead.DB, error) {
	db, built, err := memo(e, classOverheads, key, r, (*Engine).collectOverheads)
	if !built {
		return db, err
	}
	if r.model == "" {
		for _, m := range models.DLRMNames() {
			e.OverheadDB(r.device, m)
		}
	}
	e.releaseRuns(r)
	return db, err
}

// pooledRuns lists, in pooling order, the profiled runs the database r
// names pools: r.model's (every DLRM family's when unset — the shared
// database) at the family's evaluation batch sizes.
func (e *Engine) pooledRuns(r runSpec) []runSpec {
	names := []string{r.model}
	if r.model == "" {
		names = models.DLRMNames()
	}
	var runs []runSpec
	for _, model := range names {
		for _, b := range e.BatchesFor(model) {
			runs = append(runs, runSpec{r.device, model, b, true})
		}
	}
	return runs
}

// releaseRuns is the runs class's release rule, applied once the
// database r names is stored. A profiled run (d, m, b) is read by the
// databases that pool it — db/d/m and, for a DLRM family m, shared/d —
// and by nothing else, so once all of them are resident (collected or
// installed) its samples are dropped. Since a shared build pools every
// family's own database too (overheads), a DLRM run outlives its
// database only when that family's own was built first: it is held for
// a later shared build. A database evicted later rebuilds
// by simulating its runs anew, bit-identically, as runs misses. The
// check follows the store: of two databases built concurrently over the
// same runs, the one that finishes last sees the other resident and
// releases them. Measured runs are never released.
func (e *Engine) releaseRuns(r runSpec) {
	resident := e.store.class(classOverheads).snapshot()
	_, shared := resident["shared/"+r.device]
	for _, run := range e.pooledRuns(r) {
		if _, own := resident["db/"+r.device+"/"+run.model]; own && (shared || !slices.Contains(models.DLRMNames(), run.model)) {
			e.store.class(classRun).release(run.key())
		}
	}
}

// collectOverheads profiles the runs the database r names pools
// (pooledRuns) and pools their samples. The runs are independent — each
// draws from its own runSeed — so they simulate concurrently; the pool
// keeps the listed order, which is what fixes the order of the pooled
// samples and with it every mean. The shared database pools the same
// memoized samples as the per-workload ones.
func (e *Engine) collectOverheads(r runSpec) (*overhead.DB, error) {
	specs := e.pooledRuns(r)
	db, err := overhead.NewCollector().Pool(len(specs), e.opts.Workers, func(i int) (*overhead.Samples, error) {
		return e.Samples(specs[i].device, specs[i].model, specs[i].batch)
	})
	if err != nil {
		return nil, err
	}
	e.bumpAssetEpoch(r.device)
	return db, nil
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
//
//lint:allow unlinked contract-test helper: accounting_test.go builds its requests with it
func NewRequest(device, workloadName string, batch int64) Request {
	return Request{Device: device, Scenario: scenario.Single(workloadName, batch)}
}

// Key is the request's cache identity: device, scenario fingerprint,
// and overhead-database mode.
func (r Request) Key() string {
	return string(r.AppendKey(nil))
}

// AppendKey appends the cache identity to b — the allocation-free Key
// used with pooled scratch buffers on the hot lookup path, and by the
// explore layer to deduplicate grid points by the identity the result
// cache keys on. The layout (device/fingerprint/shared=bool) is
// pinned. Two requests with equal keys predict identically only if
// both specs Validate: single-device identity drops the comm field, so
// an invalid spec can alias a valid one and validation must come
// first.
//
//lint:hotpath root
func (r *Request) AppendKey(b []byte) []byte {
	b = append(b, r.Device...)
	b = append(b, '/')
	b = r.Scenario.AppendFingerprint(b)
	if r.Shared {
		return append(b, "/shared=true"...)
	}
	return append(b, "/shared=false"...)
}

// detach copies the request for a builder. A build can outlive its
// caller (a detached flight) and is reached through a func value, so
// handing it the caller's own pointer would force every caller's
// request onto the heap before the lookup has run; copying only once
// the lookup has missed keeps a resident hit allocation-free. nil (a
// string-keyed asset lookup) stays nil.
func (r *Request) detach() *Request {
	if r == nil {
		return nil
	}
	c := *r
	return &c
}

// keyBufPool recycles the scratch buffers behind AppendKey so a cache
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
	cs := e.store.class(classResult)
	return cs.hits.Load(), cs.misses.Load()
}

// RejectedRequests counts requests that failed scenario validation
// before reaching the compute path (and therefore the cache counters).
func (e *Engine) RejectedRequests() uint64 { return e.rejected.Load() }

// RejectRequest tallies a request a front end refused before it could
// become an engine request (the facade's device-set check, scenario
// resolution and validation). Counting those here keeps the
// serving-layer invariant — hits + misses + rejected == requests
// dispatched — on every path.
func (e *Engine) RejectRequest() { e.rejected.Add(1) }

// AssetStats reports the unified asset store's per-class counters:
// resident entries against capacity, approximate resident bytes, and
// hit/miss/eviction totals. The results class's hits and misses are the
// request-level CacheStats counters (so joins on in-flight requests are
// included). A profiled run released once its databases are resident
// (releaseRuns) leaves the runs class's resident count and bytes and
// moves no counter: a release is not an eviction.
func (e *Engine) AssetStats() AssetStats { return e.store.stats() }

// request is the one pipeline every request takes to the result class:
// validate, then key, then lookup, with the cache accounting around it.
// Validation runs before the key exists because an invalid spec can
// alias a valid one's identity (see AppendKey); a reject is tallied
// and touches nothing else. Everything past validation is exactly one
// hit or one miss. A context already expired at entry, or one that
// expires while waiting on a flight, is a miss that returns ctx.Err();
// the computation it started (or joined) keeps running detached and
// lands in the cache, so a canceled request never poisons the
// singleflight entry or wastes the work for the next identical
// request. The one exception is a resident-only probe (nil build) that
// finds nothing: it served nobody, moves no counter, and leaves the
// request to be re-entered with a builder. Service time, concurrency
// and cancellation are the serving layer's to count: its queue times
// every job it runs.
//
//lint:hotpath root
func (e *Engine) request(ctx context.Context, prefix string, req *Request, build buildFn) (v any, hit bool, err error) {
	if err = req.Scenario.Validate(); err != nil {
		e.rejected.Add(1)
		return nil, false, err
	}
	if err = ctx.Err(); err != nil {
		e.store.class(classResult).misses.Add(1)
		return nil, false, err
	}
	return e.lookup(ctx, classResult, prefix, req, build)
}

// Predict serves one request, building any missing assets on the way.
// Results are cached by scenario fingerprint: repeats are served from
// memory, and identical concurrent requests share one computation.
//
//lint:allow unlinked contract-test helper: plan_test.go and bind_test.go predict through it
func (e *Engine) Predict(req Request) Result {
	return e.PredictCtx(context.Background(), req)
}

// PredictCtx is Predict with a caller deadline: when ctx expires the
// caller gets ctx.Err() immediately, counted as a miss (see request for
// the detached computation).
//
// It is local prediction's entry to the steady-state path.
//
//lint:hotpath root
func (e *Engine) PredictCtx(ctx context.Context, req Request) (res Result) {
	e.predictInto(ctx, &req, &res)
	return res
}

// predictInto runs one local prediction through request and fills *out.
// Pointer in, pointer out: the request and result structs are large
// enough that by-value passing shows up as copy traffic on the hit
// path.
func (e *Engine) predictInto(ctx context.Context, req *Request, out *Result) {
	out.Request = *req
	v, hit, err := e.request(ctx, "predict/", req, (*Engine).predictScenario)
	if out.Err = err; err != nil {
		return
	}
	c := v.(cached)
	out.Prediction, out.Multi, out.Plan, out.CacheHit = c.pred, c.multi, c.plan, hit
}

// RemoteResult serves a request whose computation happens OUTSIDE this
// engine — the cluster coordinator's pass-through: workers compute,
// but repeats of an identical scenario are answered from this engine's
// fingerprint result cache without another network round trip. It is
// Predict with fetch as the builder and a "remote/" key prefix (so
// locally computed entries and opaque remote payloads never collide):
// the same validation, singleflight collapse and counters, so the
// CacheStats invariant holds unchanged for a cache-only engine that
// never calibrates. An invalid request is rejected without
// running fetch — its key would alias a valid request's row. A fetch
// error is returned to every joiner and nothing is stored, so a
// transient worker failure never poisons the cache.
//
// It is the pass-through's entry to the steady-state path.
//
//lint:hotpath root
func (e *Engine) RemoteResult(ctx context.Context, req Request, fetch func() (any, error)) (v any, hit bool, err error) {
	// Resident-only first, as memo does: the adapter binding fetch is
	// only made once that has missed, so a warm coordinator answers a
	// repeat without allocating.
	if v, hit, err = e.request(ctx, "remote/", &req, nil); err == errNotResident {
		v, hit, err = e.request(ctx, "remote/", &req, func(*Engine, *Request) (any, error) { return fetch() })
	}
	return v, hit, err
}

// ResidentResult is RemoteResult's resident-only read, for a caller that
// plans many rows before it fetches any (the coordinator's batch path).
// A resident entry is a served hit and counted as one; a request with
// nothing resident moves no counter and is left to RemoteResult. A
// memory read waits on nothing, so it takes no context.
//
// It is on the hit path of every coordinator batch row.
//
//lint:hotpath root
func (e *Engine) ResidentResult(req Request) (v any, ok bool) {
	v, _, err := e.request(context.Background(), "remote/", &req, nil)
	return v, err == nil
}

// InstallRemoteResult seeds the fingerprint result cache with an
// externally computed value under the same "remote/" key RemoteResult
// would use — the coordinator replication path: a peer that fetched a
// row from a worker shares it, so a repeat hitting THIS engine is a
// hit without a worker round trip. No request counters move — a
// replicated entry is an install, not a served request — which keeps
// hits + misses + rejected == requests intact on every coordinator.
// The caller vouches for req's validity, as the facade's Resolve does.
func (e *Engine) InstallRemoteResult(req Request, v any) {
	e.store.class(classResult).put("remote/"+req.Key(), v, approxBytes(v))
}
