package dlrmperf

import (
	"context"
	"fmt"
	"sync"

	"dlrmperf/internal/engine"
	"dlrmperf/internal/hw"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/microbench"
	"dlrmperf/internal/mlp"
	"dlrmperf/internal/perfmodel"
	"dlrmperf/internal/scenario"
)

// Engine is the multi-device prediction service of the facade: one
// device-keyed cache of calibrated kernel models and overhead
// databases, serving batches of (workload, batch size, device)
// prediction requests concurrently. Devices calibrate lazily on first
// use — at most once each, no matter how many concurrent requests hit
// them — and calibrations can be exported and re-imported to warm-start
// other engines ("calibrate once per device, predict anywhere").
type Engine struct {
	eng *engine.Engine

	mu      sync.RWMutex
	devices []string
}

// EngineConfig customizes NewEngineWith.
type EngineConfig struct {
	// Devices restricts the engine (default: all supported devices).
	Devices []string
	// Seed drives every derived calibration and measurement stream
	// (default 2022). Each device mixes its name into the seed, so
	// devices are decorrelated but individually reproducible.
	Seed uint64
	// Workers bounds concurrent calibration jobs and the profiled runs
	// pooled into one overhead database (default runtime.GOMAXPROCS).
	// How many predictions run at once is the caller's choice: the
	// serving layer bounds it with its own worker pool.
	Workers int
	// Calib overrides calibration options (Seed is derived per device).
	Calib perfmodel.CalibOptions
	// ResultCacheSize caps the prediction result cache (default 512
	// entries; negative disables caching).
	ResultCacheSize int
}

// AssetStats is the engine's per-class asset store report: resident
// entries against capacity, approximate resident bytes, and lifetime
// hit/miss/eviction counters for calibrations (pinned), runs, overhead
// DBs, graphs, and cached results.
type AssetStats = engine.AssetStats

// AssetClassStats is one class's entry in AssetStats.
type AssetClassStats = engine.ClassStats

// FastCalibConfig returns an EngineConfig with low-fidelity
// calibration: eighth-size microbenchmark sweeps and a single tiny
// network per ML-based kernel family, so a device calibrates in
// fractions of a second instead of minutes. Predictions are still
// fully deterministic in the seed, just lower fidelity — this is the
// preset behind `dlrmperf-serve -fast-calib`, smoke tests, and CI,
// and the single source of truth for those knobs.
func FastCalibConfig(seed uint64, workers int) EngineConfig {
	sizes := map[kernels.Kind]int{}
	for k, n := range microbench.DefaultSweepSizes() {
		sizes[k] = n / 8
	}
	return EngineConfig{
		Seed:    seed,
		Workers: workers,
		Calib: perfmodel.CalibOptions{
			SweepSizes: sizes, Ensemble: 1,
			MLPConfig: mlp.Config{HiddenLayers: 1, Width: 16, Optimizer: mlp.Adam, LR: 3e-3, Epochs: 10, BatchSize: 64},
		},
	}
}

// NewEngineWith returns a lazy prediction engine with full control over
// seed, worker pool, and calibration options.
func NewEngineWith(cfg EngineConfig) (*Engine, error) {
	if len(cfg.Devices) == 0 {
		cfg.Devices = hw.Names()
	}
	for _, d := range cfg.Devices {
		if _, err := hw.ByName(d); err != nil {
			return nil, err
		}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 2022
	}
	calib := cfg.Calib
	calib.IncludeCNN = true
	return &Engine{
		eng: engine.New(engine.Options{
			Seed: cfg.Seed, SaltDeviceSeeds: true,
			Calib: calib, Workers: cfg.Workers,
			ResultCacheSize: cfg.ResultCacheSize,
		}),
		devices: append([]string(nil), cfg.Devices...),
	}, nil
}

// Devices returns the devices this engine serves.
func (e *Engine) Devices() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]string(nil), e.devices...)
}

// checkServes returns an error when device is outside the engine's
// device set. It runs before any engine dispatch, so an out-of-set
// request never triggers a calibration it would then discard.
func (e *Engine) checkServes(device string) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, d := range e.devices {
		if d == device {
			return nil
		}
	}
	return fmt.Errorf("dlrmperf: device %q not in engine device set %v", device, e.devices)
}

// PredictRequest names one prediction: a scenario (by registered name,
// or a built-in workload plus execution strategy) on a device.
type PredictRequest struct {
	// Workload is a built-in workload name (see Workloads). Ignored
	// when Scenario is set.
	Workload string
	// Batch is the global training batch size (0 with Scenario set
	// selects the scenario's default).
	Batch int64
	// Device is a supported device name (see Devices).
	Device string
	// SharedOverheads charges host overheads from the device's shared
	// cross-DLRM database instead of the workload's own (the paper's
	// large-scale prediction mode).
	SharedOverheads bool
	// Scenario names a registered scenario generator (see Scenarios);
	// it supplies the workload, table population, and default execution
	// width.
	Scenario string
	// GPUs overrides the execution width: widths above 1 predict
	// hybrid-parallel training (dense data-parallel, embedding tables
	// sharded by the planner) across that many identical devices. 0
	// keeps the scenario's default (1 for plain workload requests).
	GPUs int
	// Comm names the interconnect model for multi-GPU requests
	// ("nvlink" default, "pcie").
	Comm string
}

// Scenarios lists the registered scenario generator names.
func Scenarios() []string { return scenario.Names() }

// PredictResult pairs a request with its prediction or error.
type PredictResult struct {
	Request    PredictRequest
	Prediction Prediction
	// GPUs is the execution width the prediction covers (>= 1).
	GPUs int
	// ScalingEfficiency is the retained fraction of linear scaling
	// (1 for single-GPU results).
	ScalingEfficiency float64
	// AllReduceUs and AllToAllUs break out the per-step collective
	// times of multi-GPU predictions.
	AllReduceUs, AllToAllUs float64
	// ShardImbalance is the sharding plan's max/mean - 1 device load
	// spread (0 when no embedding sharding took place).
	ShardImbalance float64
	// CacheHit marks results served from the engine's prediction
	// result cache.
	CacheHit bool
	Err      error
}

// Predict serves one request, lazily calibrating the device and
// collecting its overhead statistics on first use. Requests for
// devices outside the engine's set fail fast, before any calibration.
func (e *Engine) Predict(req PredictRequest) PredictResult {
	return e.PredictContext(context.Background(), req)
}

// PredictContext is Predict with a caller deadline: when ctx expires
// the caller gets ctx.Err() immediately while any computation it
// started keeps running detached and lands in the result cache, so a
// canceled request never poisons the in-flight entry or wastes the
// work for the next identical request. This is the entry point of the
// async serving layer (internal/serve), which threads per-request HTTP
// deadlines through here.
func (e *Engine) PredictContext(ctx context.Context, req PredictRequest) (res PredictResult) {
	ereq, err := e.resolve(&req)
	if err != nil {
		return PredictResult{Request: req, Err: err}
	}
	r := e.eng.PredictCtx(ctx, ereq)
	fromEngine(&res, req, &r)
	return res
}

// CacheStats returns the engine's prediction result cache counters: a
// miss is a request that reached the compute path (computed, or joined
// a computation that failed), a hit anything served from memory
// (including joins on an identical in-flight request that succeeded).
// hits + misses equals the requests the engine served; validation
// rejects are counted by RejectedRequests instead.
func (e *Engine) CacheStats() (hits, misses uint64) {
	return e.eng.CacheStats()
}

// RejectedRequests counts requests rejected at validation — engine
// scenario validation plus the facade's device-set check and scenario
// resolution — before the compute path and the cache counters, so
// hits + misses + rejected accounts for every dispatched request.
func (e *Engine) RejectedRequests() uint64 { return e.eng.RejectedRequests() }

// AssetStats reports the engine's unified asset store: per-class
// resident counts, capacities, approximate bytes, and
// hit/miss/eviction counters.
func (e *Engine) AssetStats() AssetStats { return e.eng.AssetStats() }

// ResolveSpec resolves the request into the exact scenario spec the
// engine would execute: named scenarios go through the registry with
// batch/width defaults applied, plain workload requests become
// single-device (or width-overridden) ad-hoc scenarios, and the
// request's Comm override is applied last. The spec is NOT validated
// here (Build validates before the comm override, so the final spec
// must be re-checked): Resolve is the step that validates and decides
// identity.
func (r PredictRequest) ResolveSpec() (scenario.Spec, error) {
	var spec scenario.Spec
	if r.Scenario != "" {
		s, err := scenario.Build(r.Scenario, r.Batch, r.GPUs)
		if err != nil {
			return scenario.Spec{}, err
		}
		spec = s
	} else {
		spec = scenario.Single(r.Workload, r.Batch)
		if r.GPUs > 0 {
			spec.Devices = r.GPUs
		}
	}
	if r.Comm != "" {
		spec.Comm = r.Comm
	}
	return spec, nil
}

// Resolve is the one place a public request becomes an engine request:
// ResolveSpec, then Validate, then the (device, spec, overhead mode)
// triple whose AppendKey is the request's identity from the wire to the
// result store. Two requests that Resolve to equal keys predict
// identically — the identity the explore layer deduplicates grid points
// by, and the coordinator's pass-through cache keys rows by. Validation
// is part of the step, not an afterthought: a single-device spec drops
// its comm field from the fingerprint, so an unvalidated request can
// alias a valid one's key. An error means the request has no identity
// and must never be keyed.
func (r PredictRequest) Resolve() (engine.Request, error) {
	spec, err := r.ResolveSpec()
	if err == nil {
		err = spec.Validate()
	}
	return engine.Request{Device: r.Device, Scenario: spec, Shared: r.SharedOverheads}, err
}

// resolve is Resolve for a request this engine is about to serve: the
// device-set check first (an out-of-set request never triggers a
// calibration it would then discard), and a refused request tallied in
// RejectedRequests so hits + misses + rejected accounts for every
// dispatched request.
func (e *Engine) resolve(req *PredictRequest) (engine.Request, error) {
	err := e.checkServes(req.Device)
	var ereq engine.Request
	if err == nil {
		ereq, err = req.Resolve()
	}
	if err != nil {
		e.eng.RejectRequest()
	}
	return ereq, err
}

// fromEngine flattens an engine result into *res in place — pointer in,
// pointer out, so the warm batch path moves each large result struct
// exactly once.
func fromEngine(res *PredictResult, req PredictRequest, r *engine.Result) {
	res.Request = req
	res.GPUs = r.Request.Scenario.NumDevices()
	res.ScalingEfficiency = r.ScalingEfficiency()
	res.CacheHit = r.CacheHit
	res.Err = r.Err
	if res.Err == nil {
		res.Prediction = Prediction{
			E2EUs:    r.Prediction.E2E,
			ActiveUs: r.Prediction.Active,
			CPUUs:    r.Prediction.CPUTime,
		}
	}
	if r.Multi != nil {
		res.AllReduceUs = r.Multi.AllReduceUs
		res.AllToAllUs = r.Multi.AllToAllUs
	}
	if r.Plan != nil {
		res.ShardImbalance = r.Plan.Imbalance()
	}
}

// Calibrate eagerly calibrates every device in the engine's set, in
// parallel, and returns the first error. It is optional — predictions
// calibrate lazily — but lets a service front-load the expensive work
// before taking traffic.
func (e *Engine) Calibrate() error {
	devices := e.Devices()
	var wg sync.WaitGroup
	errs := make([]error, len(devices))
	for i, d := range devices {
		wg.Add(1)
		go func(i int, d string) {
			defer wg.Done()
			_, errs[i] = e.eng.Calibration(d)
		}(i, d)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CalibrationRuns reports how many calibrations actually executed for a
// device: 1 after first use, 0 before first use or after a warm start.
func (e *Engine) CalibrationRuns(device string) int {
	return e.eng.CalibrationRuns(device)
}

// SaveAssets serializes one device's portable asset set — its
// calibrated kernel models plus any overhead databases collected so far
// — calibrating first if needed.
func (e *Engine) SaveAssets(device string) ([]byte, error) {
	if err := e.checkServes(device); err != nil {
		return nil, err
	}
	return e.eng.SaveAssets(device)
}

// AssetsEpoch reports a device's asset-mutation counter: it advances on
// calibration, installs, and overhead-DB collection. A cluster worker's
// asset sync re-exports (SaveAssets) and re-pushes a device only when
// its epoch has moved since the last push.
func (e *Engine) AssetsEpoch(device string) uint64 { return e.eng.AssetsEpoch(device) }

// CalibratedDevices lists the devices holding a resident calibration
// (executed or installed), sorted — the set worth exporting.
func (e *Engine) CalibratedDevices() []string { return e.eng.CalibratedDevices() }

// LoadAssets warm-starts the engine from a SaveAssets payload: the
// covered device will never calibrate again in this engine.
func (e *Engine) LoadAssets(data []byte) error {
	device, err := e.eng.LoadAssets(data)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, d := range e.devices {
		if d == device {
			return nil
		}
	}
	e.devices = append(e.devices, device)
	return nil
}
