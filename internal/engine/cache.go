package engine

import (
	"maps"
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
	// profiled ones (a profiled run keeps no trace). A profiled run is
	// released once every database that pools it is resident
	// (Engine.releaseRuns).
	classRun
	// classOverheads holds per-workload and shared host-overhead DBs.
	classOverheads
	// classGraph holds execution-graph structures — one per built-in
	// workload or table population, whatever the batch size (see
	// Engine.graph) — and scenario shapes, one per workload, table
	// population and device count (see scenarioShape).
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
	// Capacity is the configured entry cap; 0 for the pinned
	// calibration class, which never evicts.
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
// segmented LRU with approximate byte accounting and lock-free
// counters. A new entry enters a probation segment; a hit there
// promotes it to a protected segment of at most cap*4/5 entries, whose
// least recent entry drops back to the head of probation when it
// overflows. Eviction takes the tail of probation, and the tail of
// protected only once probation is empty, so a stream of one-off keys
// cycles through probation without flushing the entries that earned a
// second use. Probation may fill whatever protected leaves unused. Both
// segments share one recency list, protected in front: the boundary is
// the first probationary entry, so promotion and demotion move no
// entry and allocate nothing. Each entry carries its own list links,
// so a stored entry is one allocation. The index is rebuilt at its
// live size once the deletions since the last rebuild exceed twice
// that size: Go's swiss map keeps the tombstones of deleted keys, so a
// class that evicts on every put would otherwise see its index double
// and double again under churn (512 live keys take 27 KB fresh, 55 KB
// after 5k evicting puts and 109 KB from 400k on). Values are
// immutable once stored, so a reader holding an evicted value stays
// correct; eviction only bounds residency.
type classStore struct {
	mu sync.Mutex
	// cap bounds resident entries of a class that is not pinned.
	cap int
	// pinned disables eviction entirely (calibrations).
	pinned bool
	// head and tail are the ends of the recency list.
	head, tail *storeEntry
	items      map[string]*storeEntry
	// deleted counts index deletions since items was last rebuilt.
	deleted int
	bytes   int64
	// probation is the first probationary entry (nil when the segment
	// is empty); protected counts the entries before it.
	probation *storeEntry
	protected int

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// storeEntry is one resident entry and its links in the recency list.
type storeEntry struct {
	prev, next *storeEntry
	key        string
	val        any
	bytes      int64
	protected  bool
}

func newClassStore(capacity int, pinned bool) *classStore {
	return &classStore{cap: capacity, pinned: pinned, items: map[string]*storeEntry{}}
}

// link puts e in the recency list just before at, or at the tail when
// at is nil.
func (c *classStore) link(e, at *storeEntry) {
	e.next = at
	if at == nil {
		e.prev, c.tail = c.tail, e
	} else {
		e.prev, at.prev = at.prev, e
	}
	if e.prev == nil {
		c.head = e
	} else {
		e.prev.next = e
	}
}

// cut takes e out of the recency list.
func (c *classStore) cut(e *storeEntry) {
	if e.prev == nil {
		c.head = e.next
	} else {
		e.prev.next = e.next
	}
	if e.next == nil {
		c.tail = e.prev
	} else {
		e.next.prev = e.prev
	}
	e.prev, e.next = nil, nil
}

// get returns the stored value and records the use (touch). It does not
// touch the hit/miss counters — Engine.lookup owns the accounting so
// singleflight joins are counted exactly once.
func (c *classStore) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return c.touch(e), true
}

// getBytes is get keyed by a scratch byte buffer. The map index uses
// the string(key) conversion form the compiler recognizes, so a hit
// costs zero allocations — the hot-path lookup under pooled key
// builders.
//
//lint:hotpath root
func (c *classStore) getBytes(key []byte) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[string(key)]
	if !ok {
		return nil, false
	}
	return c.touch(e), true
}

// touch records a hit on e and returns its value: a probationary entry
// is promoted, a protected one refreshed, and when a promotion puts
// protected over its cap*4/5 share its least recent entry (the one just
// before the boundary) becomes the head of probation where it stands.
func (c *classStore) touch(e *storeEntry) any {
	if !e.protected {
		if e == c.probation {
			c.probation = e.next
		}
		e.protected = true
		c.protected++
	}
	if e != c.head {
		c.cut(e)
		c.link(e, c.head)
	}
	if c.protected > c.cap*4/5 {
		last := c.tail
		if c.probation != nil {
			last = c.probation.prev
		}
		last.protected = false
		c.protected--
		c.probation = last
	}
	return e.val
}

// put inserts a value with its approximate size at the head of
// probation, then evicts from the list's tail — probation's, or
// protected's once probation is empty — while over capacity. Pinned
// classes never evict. Updating a resident key replaces its value and
// size in place: the entry keeps its segment and position, because an
// install is not a use.
func (c *classStore) put(key string, v any, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.bytes += bytes - e.bytes
		e.val, e.bytes = v, bytes
		return
	}
	e := &storeEntry{key: key, val: v, bytes: bytes}
	c.link(e, c.probation)
	c.probation = e
	c.items[key] = e
	c.bytes += bytes
	if c.pinned {
		return
	}
	for len(c.items) > c.cap {
		c.unlink(c.tail)
		c.evictions.Add(1)
	}
	if c.deleted > 2*len(c.items) {
		c.items = maps.Clone(c.items)
		c.deleted = 0
	}
}

// unlink removes e from the list, the index and the byte total,
// keeping the segment boundary and the protected count.
func (c *classStore) unlink(e *storeEntry) {
	if e == c.probation {
		c.probation = e.next
	}
	if e.protected {
		c.protected--
	}
	c.cut(e)
	delete(c.items, e.key)
	c.deleted++
	c.bytes -= e.bytes
}

// release drops key's entry if it is resident. It is not an eviction:
// no counter moves.
func (c *classStore) release(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.unlink(e)
	}
}

// snapshot copies the resident key->value mapping (SaveAssets walks it).
func (c *classStore) snapshot() map[string]any {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]any, len(c.items))
	for k, e := range c.items {
		out[k] = e.val
	}
	return out
}

// stats returns the class's observable state under one lock acquisition.
func (c *classStore) stats(name string) ClassStats {
	c.mu.Lock()
	resident, bytes := len(c.items), c.bytes
	c.mu.Unlock()
	return ClassStats{
		Class: name, Resident: resident, Capacity: c.cap, Bytes: bytes,
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
// DBs (per-workload and shared), 512 graph structures and scenario
// shapes (whatever the batch size), and 512 results. Every bounded
// class evicts by the same segmented LRU (classStore): no class has a
// policy of its own, and the protected share is a constant 4/5 of each
// cap.
func newAssetStore() *assetStore {
	s := &assetStore{}
	s.classes[classCalibration] = newClassStore(0, true)
	s.classes[classRun] = newClassStore(512, false)
	s.classes[classOverheads] = newClassStore(128, false)
	s.classes[classGraph] = newClassStore(512, false)
	s.classes[classResult] = newClassStore(512, false)
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
const sampleBytes = 8

// shardBytes is the size of one scenario shape's shard, and
// tableSpecBytes that of one table the shard lists. A cached multi-GPU
// result is not charged for its plan: it shares its shape's.
const shardBytes, tableSpecBytes = 48, 24

// sizer is a stored value that meters itself. A value the engine cannot
// name — a coordinator's cached answer, stored through RemoteResult or
// InstallRemoteResult — reports its own size here instead of being
// charged approxBytes' fallback.
type sizer interface {
	ApproxBytes() int64
}

// approxBytes estimates the resident footprint of one asset. The
// numbers are deliberately rough — they meter relative pressure, not
// allocator truth — but scale with the dominant payload of each type:
// iteration spans and per-op device times for measured runs, samples
// for profiled ones, per-op stats for overhead DBs, a structure's
// slices and op values for graphs (graph.Graph.Bytes), plan and shards
// for scenario shapes, fitted network parameters for calibrations, and
// its own report for a sizer. An asset is metered once, when it is
// stored.
func approxBytes(v any) int64 {
	const (
		ptrOverhead     = 48  // the entry, its links and its index slot
		statsBytes      = 32  // overhead.Stats + map key share
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
			n += t.Graph.Bytes()
		}
		return n
	case *perfmodel.Calibration:
		// The fitted MLP ensembles dominate: 8 bytes per parameter.
		n := int64(ptrOverhead + 64*len(t.Evals))
		if t.Registry != nil {
			for _, kind := range t.Registry.Kinds() {
				n += modelBytes
				if m, ok := t.Registry.Model(kind).(*perfmodel.Model); ok {
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
		return n
	case *scenarioShape:
		// A shard's tables are charged twice: its list and the plan's
		// indices into the population.
		n := int64(ptrOverhead + 48)
		for _, s := range t.shards {
			n += int64(shardBytes + len(s.key) + (tableSpecBytes+8)*len(s.tables))
		}
		return n
	case sizer:
		return ptrOverhead + t.ApproxBytes()
	}
	return fallbackSize
}
