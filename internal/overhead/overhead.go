// Package overhead implements the paper's host-overhead analysis
// (Section III-C): it classifies trace events into the five overhead
// types T1-T5, subtracts profiler-overhead constants from each event,
// removes outliers outside the (Q1-1.5IQR, Q3+1.5IQR) whiskers, and
// stores per-op per-type statistics in a JSON-serializable database used
// by the E2E predictor. It also aggregates databases across workloads
// into the "shared overheads" variant evaluated in Fig. 9.
package overhead

import (
	"encoding/json"
	"maps"
	"slices"
	"sort"

	"dlrmperf/internal/sim"
	"dlrmperf/internal/stats"
	"dlrmperf/internal/trace"
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

// samples accumulates raw per-key observations before trimming. The
// maps hold pointers so that an observation is one lookup and an append
// in place, not a copy of the record out of the map and back.
type samples struct {
	t1    []float64
	perOp map[string]*[3][]float64
	t4    map[string]*[]float64
}

func newSamples() *samples {
	return &samples{perOp: map[string]*[3][]float64{}, t4: map[string]*[]float64{}}
}

// Collector extracts overhead samples from traces.
type Collector struct {
	s *samples
	// CPUCorrection and GPUCorrection are the per-event profiler
	// overheads subtracted during extraction.
	CPUCorrection float64
	GPUCorrection float64
	// TrimK is the IQR whisker multiplier (1.5 in the paper); a negative
	// value disables outlier removal (used by the trimming ablation).
	TrimK float64
}

// NewCollector returns a Collector with the paper's correction constants
// (2 µs per CPU event, 4 µs per GPU event) and 1.5-IQR trimming.
func NewCollector() *Collector {
	return &Collector{
		s:             newSamples(),
		CPUCorrection: sim.ProfilerCPUEventOverhead,
		GPUCorrection: sim.ProfilerGPUEventOverhead,
		TrimK:         1.5,
	}
}

// Add extracts overhead samples from every iteration of tr.
func (c *Collector) Add(tr *trace.Trace) {
	for iter := 0; iter < tr.Iters; iter++ {
		c.addIteration(tr.EventTree(iter))
	}
}

func clamp(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

func (c *Collector) addIteration(opsEvents []trace.OpEvents) {
	for i, oe := range opsEvents {
		if i > 0 {
			c.s.t1 = append(c.s.t1, clamp(oe.Span.Start-opsEvents[i-1].Span.End))
		}
		rec := c.s.perOp[oe.Span.Name]
		if rec == nil {
			rec = new([3][]float64)
			c.s.perOp[oe.Span.Name] = rec
		}
		if len(oe.Runtime) == 0 {
			// Algorithm 1's else branch charges T5 for kernel-less ops;
			// extract the op body accordingly.
			rec[idxT5] = append(rec[idxT5], clamp(oe.Span.Duration()-c.CPUCorrection))
			continue
		}
		first, last := oe.Runtime[0], oe.Runtime[len(oe.Runtime)-1]
		rec[idxT2] = append(rec[idxT2], clamp(first.Start-oe.Span.Start-c.CPUCorrection))
		rec[idxT3] = append(rec[idxT3], clamp(oe.Span.End-last.End-c.GPUCorrection))
		for j, rt := range oe.Runtime {
			if j > 0 {
				rec[idxT5] = append(rec[idxT5], clamp(rt.Start-oe.Runtime[j-1].End-c.GPUCorrection))
			}
			t4 := c.s.t4[rt.Name]
			if t4 == nil {
				t4 = new([]float64)
				c.s.t4[rt.Name] = t4
			}
			*t4 = append(*t4, rt.Duration())
		}
	}
}

// describeTrimmed applies the whisker trim and summarizes.
func describeTrimmed(xs []float64, k float64) Stats {
	if len(xs) == 0 {
		return Stats{}
	}
	if k > 0 {
		xs = stats.TrimIQR(xs, k)
	}
	d := stats.Describe(xs)
	return Stats{Mean: d.Mean, Std: d.Std, N: d.N}
}

// Finish trims outliers and produces the database. Ops are visited in
// name order: Defaults pools every op's samples, and a floating-point
// mean depends on the order it sums in, so the pooled order must not be
// a map's.
func (c *Collector) Finish() *DB {
	db := &DB{PerOp: map[string][3]Stats{}, T4: map[string]Stats{}}
	db.T1 = describeTrimmed(c.s.t1, c.TrimK)
	var all [3][]float64
	for _, op := range slices.Sorted(maps.Keys(c.s.perOp)) {
		rec := c.s.perOp[op]
		var st [3]Stats
		for t := 0; t < 3; t++ {
			st[t] = describeTrimmed(rec[t], c.TrimK)
			all[t] = append(all[t], rec[t]...)
		}
		db.PerOp[op] = st
	}
	for t := 0; t < 3; t++ {
		db.Defaults[t] = describeTrimmed(all[t], c.TrimK)
	}
	for fn, xs := range c.s.t4 {
		db.T4[fn] = describeTrimmed(*xs, c.TrimK)
	}
	return db
}

// FromTrace builds a database from a single workload's trace.
func FromTrace(tr *trace.Trace) *DB {
	c := NewCollector()
	c.Add(tr)
	return c.Finish()
}

// Shared builds the shared-overheads database by pooling the raw samples
// of several workloads' traces ("averaging the samples across the
// workloads collected in overhead analysis").
func Shared(trs []*trace.Trace) *DB {
	c := NewCollector()
	for _, tr := range trs {
		c.Add(tr)
	}
	return c.Finish()
}

// lookup indices into PerOp entries.
const (
	idxT2 = 0
	idxT3 = 1
	idxT5 = 2
)

func (db *DB) opStat(op string, idx int) float64 {
	if st, ok := db.PerOp[op]; ok && st[idx].N > 0 {
		return st[idx].Mean
	}
	return db.Defaults[idx].Mean
}

// T1Mean returns the mean between-ops gap.
func (db *DB) T1Mean() float64 { return db.T1.Mean }

// T2Mean returns the op's mean pre-launch overhead.
func (db *DB) T2Mean(op string) float64 { return db.opStat(op, idxT2) }

// T3Mean returns the op's mean post-launch overhead.
func (db *DB) T3Mean(op string) float64 { return db.opStat(op, idxT3) }

// T5Mean returns the op's mean inter-launch overhead (also the host body
// charge for kernel-less ops).
func (db *DB) T5Mean(op string) float64 { return db.opStat(op, idxT5) }

// Ops returns the op names present, sorted.
func (db *DB) Ops() []string {
	out := make([]string, 0, len(db.PerOp))
	for op := range db.PerOp {
		out = append(out, op)
	}
	sort.Strings(out)
	return out
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
