package engine

import (
	"container/list"
	"sync"
	"sync/atomic"

	"dlrmperf/internal/models"
	"dlrmperf/internal/overhead"
	"dlrmperf/internal/perfmodel"
	"dlrmperf/internal/predict"
	"dlrmperf/internal/scenario"
	"dlrmperf/internal/sim"
)

// cached is the memory-resident value of one served scenario request:
// everything Predict computes besides the per-call Request/CacheHit
// envelope. Values are shared between callers and must be treated as
// read-only.
type cached struct {
	pred  predict.Prediction
	multi *predict.MultiGPUPrediction
	plan  *scenario.Plan
}

// assetClass indexes one class of engine-owned assets in the store.
// Every expensive artifact the engine memoizes lives in exactly one
// class, with its own capacity, recency list, and counters.
type assetClass int

const (
	// classCalibration holds calibrated kernel-model registries. The
	// class is pinned: entries are never evicted, because warm-start
	// installs and the "calibrate once per device" contract must survive
	// arbitrary traffic.
	classCalibration assetClass = iota
	// classRun holds measured simulated runs and the overhead samples of
	// profiled ones (a profiled run keeps no trace).
	classRun
	// classOverheads holds per-workload and shared host-overhead DBs.
	classOverheads
	// classGraph holds execution-graph structures — one per built-in
	// workload or table population, whatever the batch size (see
	// Engine.graph).
	classGraph
	// classResult holds finished predictions keyed by request identity.
	classResult
	numAssetClasses
)

// ClassName renders an asset class for stats and reports.
var classNames = [numAssetClasses]string{
	"calibrations", "runs", "overheads", "graphs", "results",
}

// ClassStats is the observable state of one asset class: resident
// entries against the configured capacity, approximate resident bytes,
// and the lifetime hit/miss/eviction counters.
type ClassStats struct {
	Class    string `json:"class"`
	Resident int    `json:"resident"`
	// Capacity is the configured entry cap; 0 means unbounded (the
	// pinned calibration class, or a cap explicitly disabled).
	Capacity int `json:"capacity"`
	// Bytes is the approximate resident footprint of the class.
	Bytes     int64  `json:"bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Pinned classes never evict, whatever their size.
	Pinned bool `json:"pinned,omitempty"`
}

// AssetStats is the full asset-store report: one entry per class in
// declaration order plus the summed approximate resident bytes.
type AssetStats struct {
	Classes    []ClassStats `json:"classes"`
	TotalBytes int64        `json:"total_bytes"`
}

// Class returns the named class's stats (zero value when absent).
func (s AssetStats) Class(name string) ClassStats {
	for _, c := range s.Classes {
		if c.Class == name {
			return c
		}
	}
	return ClassStats{}
}

// classStore is one class's shard of the asset store: a mutex-guarded
// LRU (the generalization of the PR-2 result LRU) with approximate byte
// accounting and lock-free counters. Values are immutable once stored,
// so a reader holding an evicted value stays correct; eviction only
// bounds residency.
type classStore struct {
	mu sync.Mutex
	// cap bounds resident entries; <= 0 means unbounded.
	cap int
	// pinned disables eviction entirely (calibrations).
	pinned bool
	// off disables the class (the result cache under a negative
	// ResultCacheSize): nothing is ever stored, so every lookup builds.
	// Its counters still report.
	off   bool
	ll    *list.List
	items map[string]*list.Element
	bytes int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type storeEntry struct {
	key   string
	val   any
	bytes int64
}

func newClassStore(capacity int, pinned bool) *classStore {
	return &classStore{
		cap: capacity, pinned: pinned,
		ll: list.New(), items: map[string]*list.Element{},
	}
}

// get returns the stored value and refreshes its recency. It does not
// touch the hit/miss counters — Engine.lookup owns the accounting so
// singleflight joins are counted exactly once.
func (c *classStore) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*storeEntry).val, true
}

// getBytes is get keyed by a scratch byte buffer. The map index uses
// the string(key) conversion form the compiler recognizes, so a hit
// costs zero allocations — the hot-path lookup under pooled key
// builders.
func (c *classStore) getBytes(key []byte) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[string(key)]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*storeEntry).val, true
}

// put inserts (or refreshes) a value with its approximate size, then
// evicts least-recently-used entries while over capacity. Pinned
// classes never evict.
func (c *classStore) put(key string, v any, bytes int64) {
	if c.off {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*storeEntry)
		c.bytes += bytes - e.bytes
		e.val, e.bytes = v, bytes
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&storeEntry{key: key, val: v, bytes: bytes})
	c.bytes += bytes
	if c.pinned || c.cap <= 0 {
		return
	}
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		e := last.Value.(*storeEntry)
		c.ll.Remove(last)
		delete(c.items, e.key)
		c.bytes -= e.bytes
		c.evictions.Add(1)
	}
}

// snapshot copies the resident key->value mapping (SaveAssets walks it).
func (c *classStore) snapshot() map[string]any {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]any, len(c.items))
	for k, el := range c.items {
		out[k] = el.Value.(*storeEntry).val
	}
	return out
}

// stats returns the class's observable state under one lock acquisition.
func (c *classStore) stats(name string) ClassStats {
	c.mu.Lock()
	resident, bytes := c.ll.Len(), c.bytes
	c.mu.Unlock()
	capacity := c.cap
	if capacity < 0 {
		capacity = 0
	}
	return ClassStats{
		Class: name, Resident: resident, Capacity: capacity, Bytes: bytes,
		Hits: c.hits.Load(), Misses: c.misses.Load(),
		Evictions: c.evictions.Load(), Pinned: c.pinned,
	}
}

// assetStore is the engine's unified metered store: one classStore per
// asset class. Bounding lives here; build dedup stays with the engine's
// singleflight, so eviction under concurrent load cannot double-build
// or tear an entry.
type assetStore struct {
	classes [numAssetClasses]*classStore
}

// newAssetStore sizes the classes. Calibrations are pinned: warm-start
// installs and the "calibrate once per device" contract must survive
// arbitrary traffic. The other caps are fixed: 512 runs, 128 overhead
// DBs (per-workload and shared), 512 graph structures (one per built-in
// workload or table population, whatever the batch size), and
// ResultCacheSize results.
func newAssetStore(opts Options) *assetStore {
	s := &assetStore{}
	s.classes[classCalibration] = newClassStore(0, true)
	s.classes[classRun] = newClassStore(512, false)
	s.classes[classOverheads] = newClassStore(128, false)
	s.classes[classGraph] = newClassStore(512, false)
	s.classes[classResult] = newClassStore(opts.ResultCacheSize, false)
	s.classes[classResult].off = opts.ResultCacheSize < 0
	return s
}

func (s *assetStore) class(c assetClass) *classStore { return s.classes[c] }

// stats assembles the full per-class report.
func (s *assetStore) stats() AssetStats {
	out := AssetStats{Classes: make([]ClassStats, 0, len(s.classes))}
	for i, c := range s.classes {
		cs := c.stats(classNames[i])
		out.Classes = append(out.Classes, cs)
		out.TotalBytes += cs.Bytes
	}
	return out
}

// iterSpanBytes is the size of one sim.Result.IterSpans entry.
const iterSpanBytes = 16

// sampleBytes is the size of one overhead sample. A profiled run is
// charged for its samples alone: the names they refer to are the
// graph's own strings.
const sampleBytes = 16

// approxBytes estimates the resident footprint of one asset. The
// numbers are deliberately rough — they meter relative pressure, not
// allocator truth — but scale with the dominant payload of each type:
// iteration spans and per-op device times for measured runs, samples
// for profiled ones, per-op stats for overhead DBs, nodes for graphs,
// fitted network parameters for calibrations. Each is read off the
// asset's lengths, so metering a store costs no pass over its payload.
func approxBytes(v any) int64 {
	const (
		ptrOverhead     = 48  // map/list bookkeeping per entry
		statsBytes      = 32  // overhead.Stats + map key share
		nodeBytes       = 200 // graph.Node + op + tensor metadata share
		deviceTimeBytes = 24  // a sim.Result.DeviceTime entry: name header + µs
		modelBytes      = 128 // a kernel model's own fields
		fallbackSize    = 1 << 10
	)
	switch t := v.(type) {
	case *sim.Result:
		return ptrOverhead + int64(len(t.IterSpans))*iterSpanBytes + int64(len(t.DeviceTime))*deviceTimeBytes
	case *overhead.Samples:
		return ptrOverhead + int64(t.Len())*sampleBytes
	case *overhead.DB:
		n := int64(ptrOverhead) + 5*statsBytes // T1 + defaults
		for op := range t.PerOp {
			n += int64(len(op)) + 3*statsBytes
		}
		for fn := range t.T4 {
			n += int64(len(fn)) + statsBytes
		}
		return n
	case *models.Model:
		n := int64(ptrOverhead + len(t.Name))
		if t.Graph != nil {
			n += int64(len(t.Graph.Nodes)) * nodeBytes
		}
		return n
	case *perfmodel.Calibration:
		// The fitted MLP ensembles dominate: 8 bytes per parameter.
		n := int64(ptrOverhead + 64*len(t.Evals))
		if t.Registry != nil {
			for _, kind := range t.Registry.Kinds() {
				n += modelBytes
				if m, ok := t.Registry.Model(kind).(*perfmodel.MLPModel); ok {
					for _, net := range m.Nets {
						n += 8 * int64(net.NumParams())
					}
				}
			}
		}
		return n
	case cached:
		n := int64(ptrOverhead) + 32
		if t.multi != nil {
			n += 64 + int64(len(t.multi.PerDeviceE2E))*8
		}
		if t.plan != nil {
			n += 64 + 8*int64(len(t.plan.Loads))
			for _, a := range t.plan.Assignments {
				n += 8 * int64(len(a))
			}
		}
		return n
	}
	return fallbackSize
}
