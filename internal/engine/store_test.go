package engine

import (
	"reflect"
	"sync"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
)

// TestClassStoreTable drives the shared LRU shard through its
// contract: insertion order eviction, recency refresh on get, byte
// accounting across updates and evictions, and pinned classes never
// evicting no matter the configured capacity.
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
			name: "nonpositive capacity is unbounded",
			cap:  -1,
			ops: []op{
				{kind: "put", key: "a", bytes: 1},
				{kind: "put", key: "b", bytes: 1},
				{kind: "put", key: "c", bytes: 1},
			},
			wantLen: 3, wantBytes: 3, wantEvictions: 0,
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

// withCaps resizes a fresh engine's evictable classes before first use
// — the test seam in place of a capacity option. A negative cap leaves
// a class unbounded.
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
	opts := tinyOptions(7)
	opts.ResultCacheSize = -1 // every request recomputes
	e := withCaps(New(opts), 1, 1, 1)

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

// TestBoundedStoreBitIdentical is the tentpole's correctness contract:
// concurrent predictions against a store far smaller than the
// working set stays race-clean (the suite runs under -race in CI),
// keeps every class at or under its cap, evicts, and returns
// bit-identical predictions to an unbounded engine.
func TestBoundedStoreBitIdentical(t *testing.T) {
	reqs := testRequests()

	want := predictAll(withCaps(New(tinyOptions(7)), -1, -1, -1), reqs)

	boundedOpts := tinyOptions(7)
	boundedOpts.ResultCacheSize = 2
	bounded := withCaps(New(boundedOpts), 2, 1, 2)
	got := predictAll(bounded, reqs)

	for i := range reqs {
		if want[i].Err != nil || got[i].Err != nil {
			t.Fatalf("request %d errored: unbounded=%v bounded=%v", i, want[i].Err, got[i].Err)
		}
		if !reflect.DeepEqual(want[i].Prediction, got[i].Prediction) {
			t.Errorf("request %d: bounded prediction %+v != unbounded %+v",
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
	if n := bounded.CachedResults(); n > 2 {
		t.Errorf("CachedResults = %d above result cap 2", n)
	}

	// The unbounded baseline never evicts.
	u := withCaps(New(tinyOptions(7)), -1, -1, -1)
	if res := predictAll(u, reqs); res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	for _, c := range u.AssetStats().Classes {
		if c.Evictions != 0 {
			t.Errorf("unbounded %s class evicted %d entries", c.Class, c.Evictions)
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

	// The cold-path engine (result cache disabled) holds it too.
	coldOpts := tinyOptions(7)
	coldOpts.ResultCacheSize = -1
	cold := New(coldOpts)
	for i := 0; i < 3; i++ {
		if res := cold.Predict(ok); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if res := cold.Predict(invalid); res.Err == nil {
		t.Fatal("invalid batch served cold")
	}
	h, m := cold.CacheStats()
	if h+m != 3 || cold.RejectedRequests() != 1 {
		t.Errorf("cold path: hits+misses = %d+%d rejected=%d, want 3 served / 1 rejected",
			h, m, cold.RejectedRequests())
	}
}

// TestResultCacheEvictionBounded: a result cache smaller than the
// distinct request set stays at its cap and evicts, while every
// prediction remains correct.
func TestResultCacheEvictionBounded(t *testing.T) {
	opts := tinyOptions(7)
	opts.ResultCacheSize = 2
	e := New(opts)
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
	if n := e.CachedResults(); n != 2 {
		t.Errorf("CachedResults = %d, want cap 2", n)
	}
	rc := e.AssetStats().Class("results")
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
