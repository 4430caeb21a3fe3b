package engine

import (
	"container/list"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/xrand"
)

// TestClassStoreTable drives the shared segmented-LRU shard through its
// contract: insertion order eviction, recency refresh on get, byte
// accounting across updates and evictions, pinned classes never
// evicting no matter the configured capacity, promotion out of
// probation, demotion order, scan resistance, and a re-put that is not
// a use.
func TestClassStoreTable(t *testing.T) {
	type op struct {
		kind  string // put, get
		key   string
		bytes int64
		found bool // expected for get
	}
	cases := []struct {
		name          string
		cap           int
		pinned        bool
		ops           []op
		wantLen       int
		wantBytes     int64
		wantEvictions uint64
	}{
		{
			name: "under capacity nothing evicts",
			cap:  3,
			ops: []op{
				{kind: "put", key: "a", bytes: 10},
				{kind: "put", key: "b", bytes: 20},
				{kind: "get", key: "a", found: true},
			},
			wantLen: 2, wantBytes: 30, wantEvictions: 0,
		},
		{
			name: "over capacity evicts LRU order",
			cap:  2,
			ops: []op{
				{kind: "put", key: "a", bytes: 1},
				{kind: "put", key: "b", bytes: 2},
				{kind: "put", key: "c", bytes: 4}, // evicts a
				{kind: "get", key: "a", found: false},
				{kind: "get", key: "b", found: true},
				{kind: "get", key: "c", found: true},
			},
			wantLen: 2, wantBytes: 6, wantEvictions: 1,
		},
		{
			name: "get refreshes recency",
			cap:  2,
			ops: []op{
				{kind: "put", key: "a", bytes: 1},
				{kind: "put", key: "b", bytes: 2},
				{kind: "get", key: "a", found: true},
				{kind: "put", key: "c", bytes: 4}, // evicts b, not a
				{kind: "get", key: "a", found: true},
				{kind: "get", key: "b", found: false},
			},
			wantLen: 2, wantBytes: 5, wantEvictions: 1,
		},
		{
			name: "update replaces bytes in place",
			cap:  2,
			ops: []op{
				{kind: "put", key: "a", bytes: 10},
				{kind: "put", key: "a", bytes: 30},
				{kind: "get", key: "a", found: true},
			},
			wantLen: 1, wantBytes: 30, wantEvictions: 0,
		},
		{
			name: "capacity one thrashes",
			cap:  1,
			ops: []op{
				{kind: "put", key: "a", bytes: 8},
				{kind: "put", key: "b", bytes: 8},
				{kind: "put", key: "a", bytes: 8},
				{kind: "get", key: "b", found: false},
				{kind: "get", key: "a", found: true},
			},
			wantLen: 1, wantBytes: 8, wantEvictions: 2,
		},
		{
			name:   "pinned never evicts",
			cap:    1,
			pinned: true,
			ops: []op{
				{kind: "put", key: "a", bytes: 8},
				{kind: "put", key: "b", bytes: 8},
				{kind: "put", key: "c", bytes: 8},
				{kind: "get", key: "a", found: true},
				{kind: "get", key: "b", found: true},
			},
			wantLen: 3, wantBytes: 24, wantEvictions: 0,
		},
		{
			name: "a hit promotes past newer one-off entries",
			cap:  3,
			ops: []op{
				{kind: "put", key: "a", bytes: 1},
				{kind: "get", key: "a", found: true}, // a is protected
				{kind: "put", key: "b", bytes: 2},
				{kind: "put", key: "c", bytes: 4},
				{kind: "put", key: "d", bytes: 8}, // evicts b: plain LRU would take a
				{kind: "get", key: "b", found: false},
				{kind: "get", key: "a", found: true},
			},
			wantLen: 3, wantBytes: 13, wantEvictions: 1,
		},
		{
			name: "protected overflow demotes its least recent to probation's head",
			cap:  6, // protected holds at most 4
			ops: []op{
				{kind: "put", key: "a", bytes: 1},
				{kind: "put", key: "b", bytes: 1},
				{kind: "put", key: "c", bytes: 1},
				{kind: "put", key: "d", bytes: 1},
				{kind: "put", key: "e", bytes: 1},
				{kind: "put", key: "f", bytes: 1},
				{kind: "get", key: "a", found: true},
				{kind: "get", key: "b", found: true},
				{kind: "get", key: "c", found: true},
				{kind: "get", key: "d", found: true}, // protected d c b a, probation f e
				{kind: "get", key: "e", found: true}, // demotes a: probation a f
				{kind: "put", key: "g", bytes: 1},    // evicts f, the older probationer
				{kind: "get", key: "f", found: false},
				{kind: "put", key: "h", bytes: 1}, // evicts the demoted a
				{kind: "get", key: "a", found: false},
				{kind: "get", key: "b", found: true},
				{kind: "get", key: "e", found: true},
			},
			wantLen: 6, wantBytes: 6, wantEvictions: 2,
		},
		{
			name: "a re-read key survives cap one-hit puts",
			cap:  4,
			ops: []op{
				{kind: "put", key: "hot", bytes: 1},
				{kind: "get", key: "hot", found: true},
				{kind: "put", key: "s1", bytes: 1},
				{kind: "put", key: "s2", bytes: 1},
				{kind: "put", key: "s3", bytes: 1},
				{kind: "put", key: "s4", bytes: 1}, // evicts s1
				{kind: "get", key: "hot", found: true},
				{kind: "get", key: "s1", found: false},
			},
			wantLen: 4, wantBytes: 4, wantEvictions: 1,
		},
		{
			name: "a re-put updates in place and is not a use",
			cap:  3,
			ops: []op{
				{kind: "put", key: "a", bytes: 1},
				{kind: "put", key: "b", bytes: 1},
				{kind: "put", key: "c", bytes: 1},
				{kind: "put", key: "a", bytes: 5}, // a stays probation's tail
				{kind: "put", key: "d", bytes: 1}, // evicts a: plain LRU would take b
				{kind: "get", key: "a", found: false},
				{kind: "get", key: "b", found: true},
			},
			wantLen: 3, wantBytes: 3, wantEvictions: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newClassStore(tc.cap, tc.pinned)
			for i, o := range tc.ops {
				switch o.kind {
				case "put":
					c.put(o.key, o.key, o.bytes)
				case "get":
					if _, ok := c.get(o.key); ok != o.found {
						t.Errorf("op %d: get(%q) found=%v, want %v", i, o.key, ok, o.found)
					}
				}
			}
			st := c.stats("test")
			if st.Resident != tc.wantLen {
				t.Errorf("resident = %d, want %d", st.Resident, tc.wantLen)
			}
			if st.Bytes != tc.wantBytes {
				t.Errorf("bytes = %d, want %d", st.Bytes, tc.wantBytes)
			}
			if st.Evictions != tc.wantEvictions {
				t.Errorf("evictions = %d, want %d", st.Evictions, tc.wantEvictions)
			}
			if st.Pinned != tc.pinned {
				t.Errorf("pinned = %v, want %v", st.Pinned, tc.pinned)
			}
		})
	}
}

// TestClassStoreHitAllocatesNothing: every kind of hit — a
// probationary entry promoted, a protected one refreshed, and a
// promotion that overflows protected and demotes its tail — moves list
// elements it already has and allocates nothing. Each run hits a store
// prepared beforehand, so a promotion is measured as itself and not as
// the steady state of a store that has promoted already.
func TestClassStoreHitAllocatesNothing(t *testing.T) {
	const runs = 100
	cases := []struct {
		name    string
		cap     int
		prepare func(c *classStore) // leaves "k" resident
		want    func(c *classStore) bool
	}{
		{
			name:    "probation hit promotes",
			cap:     5,
			prepare: func(c *classStore) { c.put("k", 1, 1) },
			want:    func(c *classStore) bool { return c.protected == 1 && c.probation == nil },
		},
		{
			name:    "protected hit",
			cap:     5,
			prepare: func(c *classStore) { c.put("k", 1, 1); c.get("k") },
			want:    func(c *classStore) bool { return c.protected == 1 },
		},
		{
			name: "hit that demotes",
			cap:  5, // protected holds at most 4
			prepare: func(c *classStore) {
				for _, k := range []string{"p1", "p2", "p3", "p4"} {
					c.put(k, 1, 1)
					c.get(k)
				}
				c.put("k", 1, 1)
			},
			want: func(c *classStore) bool {
				return c.protected == 4 && c.probation != nil && c.probation.key == "p1"
			},
		},
	}
	key := []byte("k")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stores := make([]*classStore, runs+1) // AllocsPerRun adds a warm-up run
			for i := range stores {
				stores[i] = newClassStore(tc.cap, false)
				tc.prepare(stores[i])
			}
			next := 0
			allocs := testing.AllocsPerRun(runs, func() {
				if _, ok := stores[next].getBytes(key); !ok {
					t.Fatal("prepared key not resident")
				}
				next++
			})
			if allocs != 0 {
				t.Errorf("hit allocates %.1f per op, want 0", allocs)
			}
			for i, c := range stores {
				if !tc.want(c) {
					t.Fatalf("store %d: hit left protected=%d, not the segment state under test", i, c.protected)
				}
			}
		})
	}
}

// TestClassStoreIndexBoundedUnderChurn: a full class that evicts on
// every put keeps its index near the size a fresh class's takes for the
// same number of live keys. Go's swiss map (Go 1.24) keeps the
// tombstones of deleted keys, so an index never rebuilt grows to about
// 4x its fresh size over this many evicting puts. The test reads the
// heap, so it must not run in parallel with others.
func TestClassStoreIndexBoundedUnderChurn(t *testing.T) {
	const capacity, puts = 512, 200_000
	fill := func(n int) *classStore {
		c := newClassStore(capacity, false)
		for i := range n {
			c.put(strconv.Itoa(i), nil, 1)
		}
		return c
	}
	fresh, churned := indexBytes(fill(capacity)), indexBytes(fill(puts))
	t.Logf("index of %d live keys: %d B fresh, %d B after %d puts", capacity, fresh, churned, puts)
	if fresh <= 0 || float64(churned) > 1.5*float64(fresh) {
		t.Errorf("churned index holds %d B, more than 1.5x the fresh index's %d B", churned, fresh)
	}
}

// indexBytes is the heap c's index holds: the live heap with it less the
// live heap without it, each read after two collections. The entries
// stay reachable through the recency list, so only the map is counted.
func indexBytes(c *classStore) int64 {
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	with := liveHeap()
	c.items = nil
	without := liveHeap()
	runtime.KeepAlive(c)
	return with - without
}

// lruStore is plain LRU as classStore implemented it before it was
// segmented: every hit and every insert goes to the front, eviction
// takes the back. It is the property test's reference.
type lruStore struct {
	cap   int
	ll    *list.List
	items map[string]*list.Element
}

func (c *lruStore) access(key string) (hit bool) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return true
	}
	c.items[key] = c.ll.PushFront(key)
	if c.ll.Len() > c.cap {
		delete(c.items, c.ll.Remove(c.ll.Back()).(string))
	}
	return false
}

// TestSegmentedBeatsLRU replays seeded key streams over a key space 8×
// the cap, the shape of bench/'s batch-mixed workload, through the
// segmented store and the plain-LRU reference, filling on every miss
// as Engine.lookup does. Under Zipf(1.0) traffic the segmented store
// must hit at least 4 points more often; under uniform traffic, where
// no key earns its place, it may lose at most 1 point.
func TestSegmentedBeatsLRU(t *testing.T) {
	const (
		capacity = 512
		keySpace = 8 * capacity
		accesses = 200_000
	)
	keys := make([]string, keySpace)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	share := func(draw func() int) (segmented, lru float64) {
		seg := newClassStore(capacity, false)
		ref := &lruStore{cap: capacity, ll: list.New(), items: map[string]*list.Element{}}
		var segHits, lruHits int
		for i := 0; i < accesses; i++ {
			k := keys[draw()]
			if _, ok := seg.get(k); ok {
				segHits++
			} else {
				seg.put(k, k, 1)
			}
			if ref.access(k) {
				lruHits++
			}
		}
		if st := seg.stats(""); st.Resident != capacity {
			t.Errorf("segmented store holds %d entries, want its cap %d", st.Resident, capacity)
		}
		return float64(segHits) / accesses, float64(lruHits) / accesses
	}
	for _, seed := range []uint64{1, 7919} {
		zipf := xrand.NewZipf(xrand.New(seed), keySpace, 1.0)
		seg, lru := share(zipf.Next)
		t.Logf("seed %d zipf(1.0): segmented %.3f, lru %.3f", seed, seg, lru)
		if seg < lru+0.04 {
			t.Errorf("seed %d zipf: segmented hit share %.3f, want >= lru %.3f + 0.04", seed, seg, lru)
		}
		rng := xrand.New(seed)
		seg, lru = share(func() int { return rng.Intn(keySpace) })
		t.Logf("seed %d uniform: segmented %.3f, lru %.3f", seed, seg, lru)
		if seg < lru-0.01 {
			t.Errorf("seed %d uniform: segmented hit share %.3f, want >= lru %.3f - 0.01", seed, seg, lru)
		}
	}
}

// withCaps resizes a fresh engine's evictable classes before first use
// — the test seam in place of a capacity option.
func withCaps(e *Engine, runs, overheads, graphs int) *Engine {
	e.store.class(classRun).cap = runs
	e.store.class(classOverheads).cap = overheads
	e.store.class(classGraph).cap = graphs
	return e
}

// TestGraphClassCapacityOneThrash runs the engine's graph class at
// capacity 1 under an A/B/A access pattern: entries evict and rebuild
// transparently, counters observe the thrash, and the rebuilt graph is
// a fresh but equivalent build.
func TestGraphClassCapacityOneThrash(t *testing.T) {
	e := New(tinyOptions(7))
	e.store.class(classGraph).cap = 1

	a1, err := e.Model(models.NameDLRMDefault, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Model(models.NameDLRMDDP, 256); err != nil {
		t.Fatal(err)
	}
	a2, err := e.Model(models.NameDLRMDefault, 256)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Error("evicted graph came back as the same pointer: no eviction happened")
	}
	if a1.Params != a2.Params || len(a1.Graph.Nodes) != len(a2.Graph.Nodes) {
		t.Errorf("rebuilt graph differs: params %d vs %d, nodes %d vs %d",
			a1.Params, a2.Params, len(a1.Graph.Nodes), len(a2.Graph.Nodes))
	}
	g := e.AssetStats().Class("graphs")
	if g.Resident != 1 {
		t.Errorf("resident graphs = %d, want 1", g.Resident)
	}
	if g.Evictions < 2 {
		t.Errorf("evictions = %d, want >= 2", g.Evictions)
	}
	if g.Hits != 0 || g.Misses != 3 {
		t.Errorf("graph counters = %d/%d hit/miss, want 0/3", g.Hits, g.Misses)
	}
	if g.Bytes <= 0 {
		t.Errorf("resident bytes = %d, want > 0", g.Bytes)
	}
}

// TestPinnedCalibrationSurvivesEviction: with every evictable class at
// capacity 1, arbitrary traffic thrashes runs/DBs/graphs, but the
// device's calibration is pinned and never rebuilds.
func TestPinnedCalibrationSurvivesEviction(t *testing.T) {
	e := withCaps(New(tinyOptions(7)), 1, 1, 1)
	e.store.class(classResult).cap = 1 // every request recomputes

	reqs := testRequests()
	for round := 0; round < 2; round++ {
		for _, r := range reqs {
			if res := e.Predict(r); res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	}
	if got := e.CalibrationRuns(hw.V100); got != 1 {
		t.Fatalf("calibrations executed = %d, want 1 (pinned class must not evict)", got)
	}
	s := e.AssetStats()
	cal := s.Class("calibrations")
	if cal.Resident != 1 || cal.Evictions != 0 || !cal.Pinned {
		t.Errorf("calibration class = %+v, want 1 resident, 0 evictions, pinned", cal)
	}
	for _, name := range []string{"runs", "overheads", "graphs"} {
		c := s.Class(name)
		if c.Resident > 1 {
			t.Errorf("%s resident = %d above capacity 1", name, c.Resident)
		}
		if c.Evictions == 0 {
			t.Errorf("%s saw no evictions under capacity 1", name)
		}
	}
	if s.TotalBytes <= 0 {
		t.Errorf("total bytes = %d, want > 0", s.TotalBytes)
	}
}

// TestBoundedStoreBitIdentical is the store's correctness contract:
// concurrent predictions against a store far smaller than the
// working set stays race-clean (the suite runs under -race in CI),
// keeps every class at or under its cap, evicts, and returns
// bit-identical predictions to an engine at the default caps, which
// hold the whole working set.
func TestBoundedStoreBitIdentical(t *testing.T) {
	reqs := testRequests()

	ref := New(tinyOptions(7))
	want := predictAll(ref, reqs)

	bounded := withCaps(New(tinyOptions(7)), 2, 1, 2)
	bounded.store.class(classResult).cap = 2
	got := predictAll(bounded, reqs)

	for i := range reqs {
		if want[i].Err != nil || got[i].Err != nil {
			t.Fatalf("request %d errored: reference=%v bounded=%v", i, want[i].Err, got[i].Err)
		}
		if !reflect.DeepEqual(want[i].Prediction, got[i].Prediction) {
			t.Errorf("request %d: bounded prediction %+v != reference %+v",
				i, got[i].Prediction, want[i].Prediction)
		}
	}

	s := bounded.AssetStats()
	caps := map[string]int{"runs": 2, "overheads": 1, "graphs": 2, "results": 2}
	evictions := uint64(0)
	for name, cap := range caps {
		c := s.Class(name)
		if c.Resident > cap {
			t.Errorf("%s resident = %d above cap %d", name, c.Resident, cap)
		}
		if c.Capacity != cap {
			t.Errorf("%s capacity = %d, want %d", name, c.Capacity, cap)
		}
		evictions += c.Evictions
	}
	if evictions == 0 {
		t.Error("tiny store saw no evictions across the batch")
	}

	// The default caps are far above the working set: the reference
	// never evicts.
	for _, c := range ref.AssetStats().Classes {
		if c.Evictions != 0 {
			t.Errorf("reference %s class evicted %d entries", c.Class, c.Evictions)
		}
	}
}

// TestAssetStatsCounters pins the memo-level accounting: first build is
// a miss, repeats are hits, and the stats survive concurrent access.
func TestAssetStatsCounters(t *testing.T) {
	e := New(tinyOptions(7))
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Model(models.NameDLRMDefault, 256); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	g := e.AssetStats().Class("graphs")
	if g.Hits+g.Misses != n {
		t.Errorf("graph hits+misses = %d+%d, want %d lookups accounted", g.Hits, g.Misses, n)
	}
	if g.Misses != 1 {
		t.Errorf("concurrent first builds = %d misses, want 1 (singleflight)", g.Misses)
	}
	// A failed build counts as a miss and stores nothing.
	if _, err := e.Model("no_such_model", 256); err == nil {
		t.Fatal("unknown model accepted")
	}
	g = e.AssetStats().Class("graphs")
	if g.Misses != 2 || g.Resident != 1 {
		t.Errorf("after failed build: misses=%d resident=%d, want 2/1", g.Misses, g.Resident)
	}
}

// TestCacheStatsInvariant is the satellite's contract: on every path —
// hits, computed misses, failures, and joins on failed in-flight
// computations — hits+misses equals the requests served, with
// validation rejects counted separately.
func TestCacheStatsInvariant(t *testing.T) {
	e := New(tinyOptions(7))
	served := uint64(0)

	// A request that validates but fails in compute (unknown device).
	bad := NewRequest("H100", models.NameDLRMDefault, 256)
	const burst = 8
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res := e.Predict(bad); res.Err == nil {
				t.Error("unknown device served")
			}
		}()
	}
	wg.Wait()
	served += burst
	hits, misses := e.CacheStats()
	if hits+misses != served {
		t.Fatalf("after failed burst: hits+misses = %d+%d, want %d served (joined failures must count)",
			hits, misses, served)
	}
	if hits != 0 {
		t.Errorf("failed requests counted as hits: %d", hits)
	}

	// Validation failures are rejected before the compute path and kept
	// out of the hit/miss counters.
	invalid := NewRequest(hw.V100, models.NameDLRMDefault, -1)
	if res := e.Predict(invalid); res.Err == nil {
		t.Fatal("invalid batch served")
	}
	if got := e.RejectedRequests(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	hits, misses = e.CacheStats()
	if hits+misses != served {
		t.Errorf("rejected request leaked into cache counters: %d+%d != %d", hits, misses, served)
	}

	// A mixed successful burst: duplicates hit or join, distinct
	// requests miss; the invariant holds regardless of interleaving.
	ok := NewRequest(hw.V100, models.NameDLRMDefault, 256)
	other := NewRequest(hw.V100, models.NameDLRMDDP, 256)
	batch := predictAll(e, []Request{ok, ok, other, ok, bad, other})
	for i, r := range batch {
		if i == 4 {
			if r.Err == nil {
				t.Error("bad slot served")
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("slot %d: %v", i, r.Err)
		}
	}
	served += 6
	hits, misses = e.CacheStats()
	if hits+misses != served {
		t.Errorf("after mixed batch: hits+misses = %d+%d, want %d served", hits, misses, served)
	}

	// Sequential repeats are pure hits; the invariant keeps holding.
	for i := 0; i < 3; i++ {
		if res := e.Predict(ok); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	served += 3
	hits, misses = e.CacheStats()
	if hits+misses != served {
		t.Errorf("after repeats: hits+misses = %d+%d, want %d served", hits, misses, served)
	}
}

// TestResultCacheEvictionBounded: a result cache smaller than the
// distinct request set stays at its cap and evicts, while every
// prediction remains correct.
func TestResultCacheEvictionBounded(t *testing.T) {
	e := New(tinyOptions(7))
	e.store.class(classResult).cap = 2
	var reqs []Request
	for _, b := range []int64{256, 512} {
		for _, w := range []string{models.NameDLRMDefault, models.NameDLRMDDP} {
			reqs = append(reqs, NewRequest(hw.V100, w, b))
		}
	}
	for _, r := range reqs {
		if res := e.Predict(r); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	rc := e.AssetStats().Class("results")
	if rc.Resident != 2 {
		t.Errorf("resident results = %d, want cap 2", rc.Resident)
	}
	if rc.Evictions != uint64(len(reqs)-2) {
		t.Errorf("result evictions = %d, want %d", rc.Evictions, len(reqs)-2)
	}
	// The stats' hit/miss mirror CacheStats.
	hits, misses := e.CacheStats()
	if rc.Hits != hits || rc.Misses != misses {
		t.Errorf("results class counters %d/%d diverge from CacheStats %d/%d",
			rc.Hits, rc.Misses, hits, misses)
	}
}
