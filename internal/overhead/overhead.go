// Package overhead implements the paper's host-overhead analysis
// (Section III-C): it classifies a profiled run's events into the five
// overhead types T1-T5, subtracts profiler-overhead constants from each
// event, removes outliers outside the (Q1-1.5IQR, Q3+1.5IQR) whiskers,
// and stores per-op per-type statistics in a JSON-serializable database
// used by the E2E predictor. It also aggregates databases across
// workloads into the "shared overheads" variant evaluated in Fig. 9.
//
// Every database is built by one path, Collector.Pool, from Samples:
// one profiled run's observations, written by the simulator as it runs
// (Collector.Profile) into one 8-byte value per sample, population by
// population, in a layout its first iteration fixes. Each run's Samples
// are taken on whichever goroutine produced them, merged in listed
// order into one array laid out the same way, each run's population
// copied after those of earlier runs, and the populations are trimmed
// concurrently. The merge fixes every population's sample order to the
// one a serial pass over the runs would give, so the database, means
// included, does not depend on the number of goroutines.
//
// The database is an exported, gossiped asset whose Defaults pool
// every op's samples, so the pooled order, and with it the
// floating-point mean, must not be a map's: the package is held to the
// deterministic analyzer.
//
//lint:deterministic
package overhead

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"dlrmperf/internal/graph"
	"dlrmperf/internal/sim"
	"dlrmperf/internal/stats"
	"dlrmperf/internal/xsync"
)

// TypeNames renders overhead type indices (sim.T1..sim.T5).
var TypeNames = [...]string{"T1", "T2", "T3", "T4", "T5"}

// T4Approx is the constant the paper substitutes for all CUDA runtime
// function durations in E2E prediction ("we use a value of 10µs to
// approximate all the CUDA runtime functions").
const T4Approx = 10.0

// Stats is mean/std/count of one (op, type) population after trimming.
type Stats struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	N    int     `json:"n"`
}

// DB is the overhead database: the JSON asset of Fig. 3's pipeline.
type DB struct {
	// T1 is the global between-ops gap statistic.
	T1 Stats `json:"t1"`
	// PerOp maps op name -> [T2, T3, T5] statistics.
	PerOp map[string][3]Stats `json:"per_op"`
	// T4 maps runtime function name -> measured duration statistics
	// (reported in the analysis; prediction uses T4Approx).
	T4 map[string]Stats `json:"t4"`
	// Defaults holds [T2, T3, T5] fallbacks for ops unseen during
	// extraction (means across all ops).
	Defaults [3]Stats `json:"defaults"`
}

// Collector holds the trimming setting: Profile takes samples, Pool
// trims them.
type Collector struct {
	// TrimK is the IQR whisker multiplier (1.5 in the paper); zero or a
	// negative value disables outlier removal (used by the trimming
	// ablation).
	TrimK float64
}

// NewCollector returns a Collector with the paper's 1.5-IQR trimming.
func NewCollector() *Collector { return &Collector{TrimK: 1.5} }

// Profile simulates g under cfg and returns the run's samples. The
// simulator hands each op to the samples as it computes it, so no trace
// is recorded; set cfg.Profile for the profiler's own overheads.
func (c *Collector) Profile(g *graph.Graph, cfg sim.Config) *Samples {
	s := newSamples(max(cfg.Iters, 1))
	cfg.Observer = s
	sim.Run(g, cfg)
	s.seal()
	return s
}

// Pool builds the database of n runs' samples. at(i) supplies the i-th,
// on up to workers goroutines at once, so a caller that simulates
// inside at overlaps the runs. The samples are pooled in index order and
// trimmed on up to workers goroutines; the result does not depend on
// workers. The first error in index order is returned. Pool only reads
// the samples, so concurrent pools may share them.
func (c *Collector) Pool(n, workers int, at func(i int) (*Samples, error)) (*DB, error) {
	parts, errs := make([]*Samples, n), make([]error, n)
	xsync.ForEachN(n, workers, func(i int) { parts[i], errs[i] = at(i) })
	if i := slices.IndexFunc(errs, func(err error) bool { return err != nil }); i >= 0 {
		return nil, errs[i]
	}
	return c.finish(merge(parts), workers), nil
}

// Sample kinds: T2, T3 and T5 are per op (idxT2..idxT5), T4 is per
// runtime function, T1 is one population for the whole run.
const (
	kindT1 = 3
	kindT4 = 4
)

// Name tables of Samples.
const (
	opNames = 0
	fnNames = 1
)

// population indexes the population of kind and name among nOps op
// names, in population order: T1, then T2 of each op, T3 of each op, T5
// of each op, then T4 of each function. T1 has no name.
func population(nOps int, kind int32, name int) int {
	switch kind {
	case kindT1:
		return 0
	case kindT4:
		return 1 + 3*nOps + name
	}
	return 1 + int(kind)*nOps + name
}

// Samples is one run's overhead samples, laid out population by
// population in population order over the op and runtime-function
// names, which are in first-seen order. It is the one sample writer: it
// implements sim.Observer, subtracting the paper's per-event profiler
// overheads (sim.ProfilerCPUEventOverhead, 2 µs, and
// sim.ProfilerGPUEventOverhead, 4 µs) as it extracts. Once Profile
// returns it is only read.
type Samples struct {
	samples []float64
	start   []int32 // population j is samples[start[j]:start[j+1]]
	names   [2][]string
	*recorder
}

// recorder is what Samples writes with, dropped when the run ends. The
// first iteration's samples are recorded in observation order, each with
// its population's kind and name; the run is laid out when it ends, and
// from then on sample k of an iteration goes to slot k's at +
// iter*stride, with no name looked up.
type recorder struct {
	first [][2]int32 // kind, name
	calls []int32    // the first iteration's call count per op
	slots []slot
	// iters, the recorded iterations, sizes the samples; iter is the
	// last op's iteration (-1 before the first), op and k count the
	// iteration's ops and samples so far, and lastEnd is the last op's
	// end.
	iters, iter, op, k int
	lastEnd            float64
}

type slot struct{ at, stride int32 }

func newSamples(iters int) *Samples {
	return &Samples{recorder: &recorder{iters: iters, iter: -1}}
}

// Len reports the number of samples.
func (s *Samples) Len() int { return len(s.samples) }

func (s *Samples) add(kind, name int32, v float64) {
	if s.iter == 0 {
		s.samples = append(s.samples, v)
		s.first = append(s.first, [2]int32{kind, name})
		return
	}
	s.samples[int(s.slots[s.k].at)+s.iter*int(s.slots[s.k].stride)] = v
	s.k++
}

// id returns name's index in table, adding it on first sight. Past the
// first iteration a sample's slot stands for its population, so id
// looks nothing up.
func (s *Samples) id(table int, name string) int32 {
	if s.iter > 0 {
		return 0
	}
	id := slices.Index(s.names[table], name)
	if id < 0 {
		id = len(s.names[table])
		s.names[table] = append(s.names[table], name)
	}
	return int32(id)
}

// begin starts iteration it, or ends the run at it == iters, where
// seal checks that no iteration was left out or added. Every iteration
// must follow the last in full, and the first one's end lays the run
// out.
func (s *Samples) begin(it int) {
	if it != s.iter+1 || s.op != len(s.calls) {
		panic(fmt.Sprintf("overhead: iteration %d of %d follows op %d of %d of iteration %d", it, s.iters, s.op, len(s.calls), s.iter))
	}
	if it == 1 {
		s.layOut()
	}
	s.iter, s.op, s.k = it, 0, 0
}

// layOut gives each population iters times its count in the first
// iteration, and each sample position of an iteration its slot in the
// first and its population's count there as its stride.
func (s *Samples) layOut() {
	nOps := len(s.names[opNames])
	s.start = make([]int32, 2+3*nOps+len(s.names[fnNames]))
	s.slots = make([]slot, len(s.first))
	for k, x := range s.first {
		// The rank in its population for now, and the population.
		j := population(nOps, x[0], int(x[1]))
		s.slots[k] = slot{at: s.start[j+1], stride: int32(j)}
		s.start[j+1]++
	}
	for j := 1; j < len(s.start); j++ {
		s.start[j] = s.start[j-1] + int32(s.iters)*s.start[j]
	}
	first := s.samples
	s.samples = make([]float64, s.start[len(s.start)-1])
	for k, v := range first {
		j := s.slots[k].stride
		s.slots[k] = slot{at: s.start[j] + s.slots[k].at, stride: (s.start[j+1] - s.start[j]) / int32(s.iters)}
		s.samples[s.slots[k].at] = v
	}
	s.first = nil
}

// seal ends the recording, which must have run every iteration in full,
// and drops the recorder.
func (s *Samples) seal() {
	if s.iter >= 0 {
		s.begin(s.iters)
	}
	s.recorder = nil
}

// Op implements sim.Observer: the T1 gap from the iteration's previous
// op, then the op's T2, T3 and T5, and each runtime call's T4.
func (s *Samples) Op(o *sim.Op) {
	if o.Iter != s.iter {
		s.begin(o.Iter)
	} else {
		s.add(kindT1, 0, max(o.Start-s.lastEnd, 0))
	}
	s.lastEnd = o.End
	// A later iteration must run the first one's ops, each making as
	// many calls.
	calls := o.Calls
	if s.iter == 0 {
		s.calls = append(s.calls, int32(len(calls)))
	} else if s.op >= len(s.calls) || int(s.calls[s.op]) != len(calls) {
		panic(fmt.Sprintf("overhead: op %d (%s) of iteration %d makes %d calls, unlike the first iteration's", s.op, o.Name, s.iter, len(calls)))
	}
	s.op++
	id := s.id(opNames, o.Name)
	if len(calls) == 0 {
		// Algorithm 1's else branch charges T5 for kernel-less ops;
		// extract the op body accordingly.
		s.add(idxT5, id, max(o.End-o.Start-sim.ProfilerCPUEventOverhead, 0))
		return
	}
	s.add(idxT2, id, max(calls[0].Start-o.Start-sim.ProfilerCPUEventOverhead, 0))
	s.add(idxT3, id, max(o.End-calls[len(calls)-1].End-sim.ProfilerGPUEventOverhead, 0))
	for j, c := range calls {
		if j > 0 {
			s.add(idxT5, id, max(c.Start-calls[j-1].End-sim.ProfilerGPUEventOverhead, 0))
		}
		s.add(kindT4, s.id(fnNames, c.Fn), c.End-c.Start)
	}
}

// pooled is the merged sample set: the op and runtime-function names in
// sorted order, and every population's samples as one run of vals, in
// population order, so that a kind's pool over all ops, which Defaults
// trims, is one run as well.
type pooled struct {
	names [2][]string
	vals  []float64
	start []int // population j is vals[start[j]:start[j+1]]
}

// merge pools the runs in order: each run's population is copied after
// the same population of earlier runs. It writes nothing into parts.
func merge(parts []*Samples) *pooled {
	m := &pooled{}
	for t := range m.names {
		for _, p := range parts {
			m.names[t] = append(m.names[t], p.names[t]...)
		}
		slices.Sort(m.names[t])
		m.names[t] = slices.Compact(m.names[t])
	}
	nOps := len(m.names[opNames])
	m.start = make([]int, 2+3*nOps+len(m.names[fnNames]))
	// to maps every run's populations, run after run, to the pooled ones;
	// a run has at most as many as the pool.
	to := make([]int, 0, len(parts)*len(m.start))
	for _, p := range parts {
		at, n := len(to), len(p.names[opNames])
		to = append(to, make([]int, max(len(p.start)-1, 0))...) // T1 is 0
		for t, kinds := range [2][]int32{opNames: {idxT2, idxT3, idxT5}, fnNames: {kindT4}} {
			for x, name := range p.names[t] {
				i, _ := slices.BinarySearch(m.names[t], name)
				for _, kind := range kinds {
					to[at+population(n, kind, x)] = population(nOps, kind, i)
				}
			}
		}
		for j, k := range to[at:] {
			m.start[k+1] += int(p.start[j+1] - p.start[j])
		}
	}
	for j := 1; j < len(m.start); j++ {
		m.start[j] += m.start[j-1]
	}
	m.vals = make([]float64, m.start[len(m.start)-1])
	next := slices.Clone(m.start)
	for _, p := range parts {
		for j := range len(p.start) - 1 {
			k := &next[to[0]]
			*k += copy(m.vals[*k:], p.samples[p.start[j]:p.start[j+1]])
			to = to[1:]
		}
	}
	return m
}

// describeTrimmed summarizes xs, trimmed at the whiskers when k > 0,
// selecting the quartiles in s.
func describeTrimmed(xs []float64, k float64, s *stats.Scratch) Stats {
	if k > 0 {
		return Stats(stats.TrimmedSeries(xs, k, s))
	}
	return Stats(stats.Describe(xs))
}

// finish trims every population of m, and each kind's pool over all
// ops for Defaults, on up to workers goroutines, each into its own slot.
// The slots start largest first, so no goroutine is left trimming a
// big population alone at the end. A population takes a selection
// scratch from a free list of one per goroutine and gives it back, so
// the trims allocate only the scratches and the order.
func (c *Collector) finish(m *pooled, workers int) *DB {
	nOps, pops := len(m.names[opNames]), len(m.start)-1
	// Slots 0-2 are the Defaults pools; slot 3+j is population j.
	span := func(j int) (lo, hi int) {
		if j < 3 {
			return m.start[1+j*nOps], m.start[1+(j+1)*nOps]
		}
		return m.start[j-3], m.start[j-2]
	}
	size := func(j int) int { lo, hi := span(j); return hi - lo }
	out := make([]Stats, 3+pops)
	order := make([]int, len(out))
	for j := range order {
		order[j] = j
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(size(b), size(a)) })
	free := make(chan *stats.Scratch, max(workers, 1))
	for range cap(free) {
		free <- new(stats.Scratch)
	}
	xsync.ForEachN(len(out), workers, func(k int) {
		j := order[k]
		lo, hi := span(j)
		s := <-free
		out[j] = describeTrimmed(m.vals[lo:hi], c.TrimK, s)
		free <- s
	})
	pop := out[3:]
	db := &DB{
		T1:    pop[0],
		PerOp: make(map[string][3]Stats, nOps),
		T4:    make(map[string]Stats, len(m.names[fnNames])),
	}
	copy(db.Defaults[:], out[:3])
	for i, op := range m.names[opNames] {
		db.PerOp[op] = [3]Stats{pop[1+i], pop[1+nOps+i], pop[1+2*nOps+i]}
	}
	for i, fn := range m.names[fnNames] {
		db.T4[fn] = pop[1+3*nOps+i]
	}
	return db
}

// lookup indices into PerOp entries.
const (
	idxT2 = 0
	idxT3 = 1
	idxT5 = 2
)

// T1Mean returns the mean between-ops gap.
func (db *DB) T1Mean() float64 { return db.T1.Mean }

// OpMeans returns the op's mean pre-launch (T2), post-launch (T3) and
// inter-launch (T5) overheads, from one lookup. Each falls back to the
// database default when the op has no sample of its type. T5 is also
// the host body charge of a kernel-less op.
func (db *DB) OpMeans(op string) (t2, t3, t5 float64) {
	st := db.PerOp[op]
	var m [3]float64
	for i := range m {
		m[i] = db.Defaults[i].Mean
		if st[i].N > 0 {
			m[i] = st[i].Mean
		}
	}
	return m[idxT2], m[idxT3], m[idxT5]
}

// Check reports why db cannot price host overheads, or nil: it is
// null, its T1 gap has no sample, or a statistic has a negative (or
// NaN) mean or standard deviation, or a negative count.
func (db *DB) Check() error {
	if db == nil {
		return errors.New("overhead: null database")
	}
	if db.T1.N < 1 {
		return fmt.Errorf("overhead: T1 has %d samples, want at least 1", db.T1.N)
	}
	ok := func(s Stats) bool { return s.Mean >= 0 && s.Std >= 0 && s.N >= 0 }
	bad := func(what string, s Stats) error {
		return fmt.Errorf("overhead: %s has mean %v, std %v, count %d", what, s.Mean, s.Std, s.N)
	}
	types := [3]string{"T2", "T3", "T5"}
	if !ok(db.T1) {
		return bad("T1", db.T1)
	}
	for i, s := range db.Defaults {
		if !ok(s) {
			return bad("default "+types[i], s)
		}
	}
	for op, st := range db.PerOp {
		for i, s := range st {
			if !ok(s) {
				return bad(types[i]+" of "+op, s)
			}
		}
	}
	for fn, s := range db.T4 {
		if !ok(s) {
			return bad("T4 of "+fn, s)
		}
	}
	return nil
}

// Marshal renders the DB as indented JSON, its form as a file of its
// own; an asset payload holds the DB as encoding/json renders it, and
// its install runs Check.
//
//lint:allow unlinked golden reference: the overhead and engine golden digests hash this rendering
func (db *DB) Marshal() ([]byte, error) {
	return json.MarshalIndent(db, "", "  ")
}

// Load parses a DB from JSON, giving it empty tables where the document
// has none. It checks nothing: Check says whether the DB can price.
//
//lint:allow unlinked contract-test helper: FuzzOverheadLoad and the round-trip suites decode through it
func Load(data []byte) (*DB, error) {
	var db DB
	if err := json.Unmarshal(data, &db); err != nil {
		return nil, err
	}
	if db.PerOp == nil {
		db.PerOp = map[string][3]Stats{}
	}
	if db.T4 == nil {
		db.T4 = map[string]Stats{}
	}
	return &db, nil
}
