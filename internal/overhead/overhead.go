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
// (Collector.Profile). Each run's Samples are taken on whichever
// goroutine produced them, merged in listed order into one array laid
// out population by population, and the populations are trimmed
// concurrently. The merge fixes every population's sample order to the
// one a serial pass over the runs would give, so the database, means
// included, does not depend on the number of goroutines.
package overhead

import (
	"encoding/json"
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

// sample is one observation and the population it joins: a kind, and
// for the per-op and T4 kinds the name's index in its table.
type sample struct {
	v          float64
	kind, name int32
}

// Samples is one run's overhead samples in observation order, with the
// op and runtime-function names they refer to in first-seen order. It is
// the one sample writer: it implements sim.Observer, subtracting the
// paper's per-event profiler overheads (sim.ProfilerCPUEventOverhead,
// 2 µs, and sim.ProfilerGPUEventOverhead, 4 µs) as it extracts. Once
// written it is only read.
type Samples struct {
	samples []sample
	names   [2][]string
	ids     [2]map[string]int32
	// iters, the recorded iterations, sizes the samples; iter and
	// lastEnd are the last op's iteration (-1 before the first) and end.
	lastEnd     float64
	iters, iter int
}

func newSamples(iters int) *Samples {
	return &Samples{ids: [2]map[string]int32{{}, {}}, iters: iters, iter: -1}
}

// Len reports the number of samples.
func (s *Samples) Len() int { return len(s.samples) }

func (s *Samples) add(kind, name int32, v float64) {
	s.samples = append(s.samples, sample{v: v, kind: kind, name: name})
}

// id returns name's index in table, adding it on first sight.
func (s *Samples) id(table int, name string) int32 {
	id, ok := s.ids[table][name]
	if !ok {
		id = int32(len(s.names[table]))
		s.ids[table][name] = id
		s.names[table] = append(s.names[table], name)
	}
	return id
}

// Op implements sim.Observer: the T1 gap from the iteration's previous
// op, then the op's T2, T3 and T5, and each runtime call's T4.
func (s *Samples) Op(o *sim.Op) {
	if o.Iter == s.iter {
		s.add(kindT1, 0, max(o.Start-s.lastEnd, 0))
	} else if s.iter == 0 {
		// Every iteration runs the same ops, so the first one sizes the
		// rest.
		s.samples = slices.Grow(s.samples, (s.iters-1)*len(s.samples))
	}
	s.iter, s.lastEnd = o.Iter, o.End
	id := s.id(opNames, o.Name)
	calls := o.Calls
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
// sorted order, and every population's samples as one run of vals — T1,
// then T2 of each op, T3 of each op, T5 of each op, then T4 of each
// function — so that a kind's pool over all ops, which Defaults trims,
// is one run as well.
type pooled struct {
	names [2][]string
	vals  []float64
	start []int // population j is vals[start[j]:start[j+1]]
}

// population indexes the population of sample x, whose names remap
// maps to the pooled ones.
func (m *pooled) population(remap *[2][]int, x sample) int {
	switch x.kind {
	case kindT1:
		return 0
	case kindT4:
		return 1 + 3*len(m.names[opNames]) + remap[fnNames][x.name]
	}
	return 1 + int(x.kind)*len(m.names[opNames]) + remap[opNames][x.name]
}

// merge pools the samples in order: a counting pass sizes every
// population, a second pass places each sample after those of earlier
// runs and earlier samples of its own. It writes nothing into parts.
func merge(parts []*Samples) *pooled {
	m := &pooled{}
	remap := make([][2][]int, len(parts))
	for t := range m.names {
		for _, p := range parts {
			m.names[t] = append(m.names[t], p.names[t]...)
		}
		slices.Sort(m.names[t])
		m.names[t] = slices.Compact(m.names[t])
		for i, p := range parts {
			remap[i][t] = make([]int, len(p.names[t]))
			for j, name := range p.names[t] {
				remap[i][t][j], _ = slices.BinarySearch(m.names[t], name)
			}
		}
	}
	m.start = make([]int, 2+3*len(m.names[opNames])+len(m.names[fnNames]))
	for i, p := range parts {
		for _, x := range p.samples {
			m.start[m.population(&remap[i], x)+1]++
		}
	}
	for j := 1; j < len(m.start); j++ {
		m.start[j] += m.start[j-1]
	}
	m.vals = make([]float64, m.start[len(m.start)-1])
	next := slices.Clone(m.start)
	for i, p := range parts {
		for _, x := range p.samples {
			j := m.population(&remap[i], x)
			m.vals[next[j]] = x.v
			next[j]++
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
// A population takes a selection scratch from a free list of one per
// goroutine and gives it back, so the trims allocate only the scratches.
func (c *Collector) finish(m *pooled, workers int) *DB {
	nOps, pops := len(m.names[opNames]), len(m.start)-1
	// Slots 0-2 are the Defaults pools, the largest, so they start
	// first; slot 3+j is population j.
	out := make([]Stats, 3+pops)
	free := make(chan *stats.Scratch, max(workers, 1))
	for range cap(free) {
		free <- new(stats.Scratch)
	}
	xsync.ForEachN(len(out), workers, func(j int) {
		lo, hi := j-3, j-2
		if j < 3 {
			lo, hi = 1+j*nOps, 1+(j+1)*nOps
		}
		s := <-free
		out[j] = describeTrimmed(m.vals[m.start[lo]:m.start[hi]], c.TrimK, s)
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

// Marshal renders the DB as indented JSON.
func (db *DB) Marshal() ([]byte, error) {
	return json.MarshalIndent(db, "", "  ")
}

// Load parses a DB from JSON.
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
