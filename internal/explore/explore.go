// Package explore is the high-throughput design-space exploration
// layer over the prediction engine — the surface the paper's whole
// premise points at: choosing a DLRM training configuration *without
// running it* means sweeping a configuration space (workload family ×
// GPU count × communication model × batch size × overhead mode) and
// reading the frontier off the predictions.
//
// A Grid names per-axis value lists; Expand crosses them into concrete
// points, rejects the ones scenario validation refuses (counted, never
// dispatched), and deduplicates the rest by resolved scenario
// fingerprint — distinct grid points can canonicalize to the same spec
// (comm "" and "nvlink" are one identity at width > 1), and a sweep
// must never predict one spec twice. The unique list comes out
// device-major, so a device's pinned calibration and its graph
// structures are touched in cache-friendly order. The serving layer's
// serve.Sweep is the one executor: it drives the unique units through
// a server's or a coordinator's batch admission (the one-shot CLI and
// POST /v1/explore alike) and streams every Outcome into an Aggregator
// — an incremental Pareto frontier, no O(n²) post-pass, memory
// proportional to the frontier and the top-N table, not the grid.
//
// Grid expansions and frontier reports are identities and answers
// compared across runs, so the package is held to the deterministic
// analyzer (no wall clock, no global math/rand, no output in map
// order); and a sweep runs under its caller's deadline, so it is held
// to ctxflow too: minting a fresh context would detach it from the
// deadline and from drain.
//
//lint:deterministic
//lint:ctxflow
package explore

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"time"

	"dlrmperf"
	"dlrmperf/internal/scenario"
)

// Grid is the JSON exploration request: one value list per axis, the
// cross-product of which is the design space. Scenarios and Devices
// are required; every other axis defaults to a one-element list that
// keeps the scenario's own default (width 0, batch 0, single-shot comm
// and overhead mode).
type Grid struct {
	// Scenarios lists registered scenario generator names (the workload
	// family × sharding strategy axis — e.g. dlrm-default vs dlrm-ddp).
	Scenarios []string `json:"scenarios"`
	// Devices lists hardware device names (V100, P100, ...).
	Devices []string `json:"devices"`
	// GPUs lists execution widths; 0 keeps each scenario's default.
	GPUs []int `json:"gpus,omitempty"`
	// Comms lists interconnect models ("" keeps the default, "nvlink",
	// "pcie"). Comm values on single-device points are rejected by
	// scenario validation and reported in the rejected count.
	Comms []string `json:"comms,omitempty"`
	// Batches lists global batch sizes; 0 keeps each scenario's default.
	Batches []int64 `json:"batches,omitempty"`
	// Shared lists overhead modes (false: per-workload overhead DB,
	// true: the device's shared cross-DLRM DB).
	Shared []bool `json:"shared,omitempty"`
	// Top bounds the best-configurations table in the report (default
	// 16, capped at 64 — the report stays small however large the grid).
	Top int `json:"top,omitempty"`
	// TimeoutMs optionally bounds each dispatched prediction: every
	// unit carries it as its request's timeout_ms, so it can only
	// tighten the server's own per-request deadline.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// topCap bounds the report's best-configurations table regardless of
// what the grid asks for.
const topCap = 64

// withDefaults fills the optional axes with one-element default lists
// and clamps Top.
func (g Grid) withDefaults() Grid {
	if len(g.GPUs) == 0 {
		g.GPUs = []int{0}
	}
	if len(g.Comms) == 0 {
		g.Comms = []string{""}
	}
	if len(g.Batches) == 0 {
		g.Batches = []int64{0}
	}
	if len(g.Shared) == 0 {
		g.Shared = []bool{false}
	}
	if g.Top <= 0 {
		g.Top = 16
	}
	if g.Top > topCap {
		g.Top = topCap
	}
	return g
}

// Size returns the cross-product cardinality of the grid after
// defaulting — the number of points Expand will visit. It saturates at
// math.MaxInt rather than wrap: six axes of 2,048 values fit in a
// 40 KB body, and their product, 2^66, would wrap to 0 and pass any
// bound on it. A saturated product times an empty axis is still 0.
func (g Grid) Size() int {
	g = g.withDefaults()
	size := 1
	for _, n := range [...]int{len(g.Scenarios), len(g.Devices), len(g.GPUs), len(g.Comms), len(g.Batches), len(g.Shared)} {
		hi, lo := bits.Mul64(uint64(size), uint64(n))
		size = math.MaxInt
		if hi == 0 && lo <= math.MaxInt {
			size = int(lo)
		}
	}
	return size
}

// Point is one concrete grid coordinate.
type Point struct {
	Scenario string `json:"scenario"`
	Device   string `json:"device"`
	GPUs     int    `json:"gpus,omitempty"`
	Comm     string `json:"comm,omitempty"`
	Batch    int64  `json:"batch,omitempty"`
	Shared   bool   `json:"shared,omitempty"`
}

// Request maps the point onto the facade request that predicts it.
func (p Point) Request() dlrmperf.PredictRequest {
	return dlrmperf.PredictRequest{
		Scenario: p.Scenario, Device: p.Device, GPUs: p.GPUs,
		Comm: p.Comm, Batch: p.Batch, SharedOverheads: p.Shared,
	}
}

// Unit is one deduplicated unit of prediction work: the first grid
// point that resolved to its (device, fingerprint, shared) identity,
// plus how many later points collapsed into it.
type Unit struct {
	Point Point
	// Spec is the resolved, validated scenario (defaults applied).
	Spec scenario.Spec
	// Key is the dedup identity: the engine request's cache key (device,
	// spec fingerprint, overhead mode) — literally the identity the
	// engine's result cache keys on.
	Key string
	// Dups counts the other grid points that resolved to this unit.
	Dups int
}

// Rejection samples one grid point that failed scenario validation.
type Rejection struct {
	Point Point  `json:"point"`
	Error string `json:"error"`
}

// rejectedSampleCap bounds the rejection samples carried in a report;
// the rejected *count* is always exact.
const rejectedSampleCap = 16

// Expansion is the expanded, deduplicated, validated form of a grid.
// Coverage is exact: Total == len(Unique) + Duplicates() + Rejected.
type Expansion struct {
	Grid  Grid
	Total int
	// Unique holds one unit per distinct prediction, in device-major
	// order: all of one device's work is contiguous, so calibrations and
	// graph structures are touched in cache-friendly runs (and the
	// cluster path keeps one worker's requests together in flight).
	Unique []Unit
	// Rejected counts grid points scenario validation refused — they
	// are never dispatched, mirroring the engine's RejectedRequests
	// accounting at the explore layer so a partially-invalid grid
	// reports exact coverage instead of silently shrinking.
	Rejected        int
	RejectedSamples []Rejection
}

// Duplicates counts the grid points that collapsed into an earlier
// unit.
func (ex *Expansion) Duplicates() int {
	return ex.Total - len(ex.Unique) - ex.Rejected
}

// Expand crosses the grid's axes, resolves each point to its engine
// request (PredictRequest.Resolve: spec resolution plus validation),
// rejects the points that have none, and deduplicates by request key.
// The device axis iterates outermost, so Unique is device-major by
// construction. Only structurally empty grids error; per-point
// failures (unknown scenario names included) land in Rejected.
func Expand(g Grid) (*Expansion, error) {
	g = g.withDefaults()
	if len(g.Scenarios) == 0 {
		return nil, fmt.Errorf("explore: grid needs at least one scenario")
	}
	if len(g.Devices) == 0 {
		return nil, fmt.Errorf("explore: grid needs at least one device")
	}
	ex := &Expansion{Grid: g}
	seen := make(map[string]int)
	var kb []byte
	for _, dev := range g.Devices {
		for _, sc := range g.Scenarios {
			for _, width := range g.GPUs {
				for _, comm := range g.Comms {
					for _, batch := range g.Batches {
						for _, shared := range g.Shared {
							ex.Total++
							p := Point{Scenario: sc, Device: dev, GPUs: width,
								Comm: comm, Batch: batch, Shared: shared}
							ereq, err := p.Request().Resolve()
							if err != nil {
								ex.Rejected++
								if len(ex.RejectedSamples) < rejectedSampleCap {
									ex.RejectedSamples = append(ex.RejectedSamples,
										Rejection{Point: p, Error: err.Error()})
								}
								continue
							}
							kb = ereq.AppendKey(kb[:0])
							if i, dup := seen[string(kb)]; dup {
								ex.Unique[i].Dups++
								continue
							}
							key := string(kb)
							seen[key] = len(ex.Unique)
							ex.Unique = append(ex.Unique, Unit{Point: p, Spec: ereq.Scenario, Key: key})
						}
					}
				}
			}
		}
	}
	return ex, nil
}

// Outcome is the prediction verdict of one unit, normalized from a
// served result row (a worker's or a coordinator's).
type Outcome struct {
	// E2EUs is the predicted per-step end-to-end time.
	E2EUs float64
	// ScalingEfficiency is the retained fraction of linear scaling.
	ScalingEfficiency float64
	// CacheHit marks results served from a result cache (engine or
	// coordinator pass-through).
	CacheHit bool
	// Err is the failure message ("" on success): dispatch errors,
	// deadline expiries, engine-side rejects.
	Err string
}

// Row is one explored configuration in the report: the resolved
// coordinate (width and batch are post-default) plus its prediction.
type Row struct {
	Scenario string `json:"scenario"`
	Workload string `json:"workload"`
	Device   string `json:"device"`
	// Devices is the resolved execution width (>= 1).
	Devices int     `json:"devices"`
	Comm    string  `json:"comm,omitempty"`
	Batch   int64   `json:"batch"`
	Shared  bool    `json:"shared,omitempty"`
	E2EUs   float64 `json:"e2e_us"`
	// SamplesPerSec is the predicted training throughput:
	// batch / step time.
	SamplesPerSec     float64 `json:"samples_per_sec"`
	ScalingEfficiency float64 `json:"scaling_efficiency,omitempty"`
	CacheHit          bool    `json:"cache_hit,omitempty"`
	Fingerprint       string  `json:"fingerprint"`
}

// rowOf renders a successful unit outcome as a report row.
func rowOf(u *Unit, o Outcome) Row {
	r := Row{
		Scenario:          u.Point.Scenario,
		Workload:          u.Spec.Workload,
		Device:            u.Point.Device,
		Devices:           u.Spec.NumDevices(),
		Comm:              u.Spec.Comm,
		Batch:             u.Spec.Batch,
		Shared:            u.Point.Shared,
		E2EUs:             o.E2EUs,
		ScalingEfficiency: o.ScalingEfficiency,
		CacheHit:          o.CacheHit,
		Fingerprint:       u.Spec.Fingerprint(),
	}
	if o.E2EUs > 0 {
		r.SamplesPerSec = float64(r.Batch) / o.E2EUs * 1e6
	}
	return r
}

// Report is the sweep's output document. Coverage is exact —
// GridPoints == Unique + Duplicates + Rejected, and every unique unit
// lands in Predicted (Failed counts the predicted units whose
// prediction errored). CacheHitRate is over predicted units, so a warm
// repeat of an identical grid reports 1.0.
type Report struct {
	GridPoints      int         `json:"grid_points"`
	Unique          int         `json:"unique"`
	Duplicates      int         `json:"duplicates"`
	Rejected        int         `json:"rejected"`
	RejectedSamples []Rejection `json:"rejected_samples,omitempty"`
	Predicted       int         `json:"predicted"`
	Failed          int         `json:"failed"`
	FailedSamples   []Rejection `json:"failed_samples,omitempty"`
	CacheHits       int         `json:"cache_hits"`
	CacheHitRate    float64     `json:"cache_hit_rate"`
	ElapsedMs       float64     `json:"elapsed_ms"`
	// ConfigsPerSec is the sweep throughput over the whole grid
	// (duplicates and rejects are resolved by the sweep too);
	// PredictionsPerSec counts only the unique predicted units.
	ConfigsPerSec     float64 `json:"configs_per_sec"`
	PredictionsPerSec float64 `json:"predictions_per_sec"`
	// Frontier is the Pareto frontier of predicted step time vs device
	// count: each row is the fastest configuration at its width, and
	// wider rows are strictly faster than every narrower one.
	Frontier []Row `json:"frontier"`
	// Best maps each workload family to its highest-throughput
	// configuration.
	Best map[string]Row `json:"best_per_workload"`
	// Top lists the Grid.Top highest-throughput configurations overall.
	Top []Row `json:"top,omitempty"`
	// Assets snapshots the engine's per-class asset store at report
	// time (calibrations, graphs, cached results).
	Assets *dlrmperf.AssetStats `json:"assets,omitempty"`
}

// Aggregator folds unit outcomes into the report's online aggregates.
// It retains the frontier, the per-workload best table, and the top-N
// list — never the full row set — so its memory is proportional to the
// frontier, not the grid. Add is safe for concurrent use.
type Aggregator struct {
	ex *Expansion

	mu        sync.Mutex
	frontier  Frontier
	best      map[string]Row
	top       topN
	predicted int
	failed    int
	failures  []Rejection
	cacheHits int
}

// NewAggregator returns an aggregator over the expansion's units.
func NewAggregator(ex *Expansion) *Aggregator {
	return &Aggregator{
		ex:   ex,
		best: make(map[string]Row),
		top:  topN{n: ex.Grid.Top},
	}
}

// Add folds in the outcome of unit i.
func (a *Aggregator) Add(i int, o Outcome) {
	u := &a.ex.Unique[i]
	a.mu.Lock()
	defer a.mu.Unlock()
	a.predicted++
	if o.CacheHit {
		a.cacheHits++
	}
	if o.Err != "" {
		a.failed++
		if len(a.failures) < rejectedSampleCap {
			a.failures = append(a.failures, Rejection{Point: u.Point, Error: o.Err})
		}
		return
	}
	row := rowOf(u, o)
	a.frontier.Add(row)
	a.top.add(row)
	if best, ok := a.best[row.Workload]; !ok || betterForWorkload(row, best) {
		a.best[row.Workload] = row
	}
}

// betterForWorkload orders the per-workload best table: higher
// throughput wins; ties break to the lower step time, then to the
// smaller tie key, so the table is deterministic whatever order
// results stream in.
func betterForWorkload(a, b Row) bool {
	if a.SamplesPerSec != b.SamplesPerSec {
		return a.SamplesPerSec > b.SamplesPerSec
	}
	if a.E2EUs != b.E2EUs {
		return a.E2EUs < b.E2EUs
	}
	return tieKey(a) < tieKey(b)
}

// Report assembles the final document.
func (a *Aggregator) Report(elapsed time.Duration) *Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	ex := a.ex
	rep := &Report{
		GridPoints:      ex.Total,
		Unique:          len(ex.Unique),
		Duplicates:      ex.Duplicates(),
		Rejected:        ex.Rejected,
		RejectedSamples: ex.RejectedSamples,
		Predicted:       a.predicted,
		Failed:          a.failed,
		FailedSamples:   a.failures,
		CacheHits:       a.cacheHits,
		ElapsedMs:       float64(elapsed.Microseconds()) / 1000,
		Frontier:        a.frontier.Points(),
		Best:            make(map[string]Row, len(a.best)),
		Top:             a.top.list(),
	}
	for w, r := range a.best {
		rep.Best[w] = r
	}
	if a.predicted > 0 {
		rep.CacheHitRate = float64(a.cacheHits) / float64(a.predicted)
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.ConfigsPerSec = float64(ex.Total) / secs
		rep.PredictionsPerSec = float64(a.predicted) / secs
	}
	return rep
}

// topN keeps the n highest-throughput rows seen so far, ordered by
// descending SamplesPerSec with the deterministic tie key.
type topN struct {
	n    int
	rows []Row
}

func (t *topN) add(r Row) {
	if t.n <= 0 {
		return
	}
	i := sort.Search(len(t.rows), func(i int) bool {
		return betterForWorkload(r, t.rows[i])
	})
	if i >= t.n {
		return
	}
	t.rows = append(t.rows, Row{})
	copy(t.rows[i+1:], t.rows[i:])
	t.rows[i] = r
	if len(t.rows) > t.n {
		t.rows = t.rows[:t.n]
	}
}

func (t *topN) list() []Row {
	return append([]Row(nil), t.rows...)
}
