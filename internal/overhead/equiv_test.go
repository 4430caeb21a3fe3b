package overhead

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/sim"
)

// The reference sample log: every sample a 16-byte (value, kind, name)
// record in observation order, pooled by a counting pass and a scatter.
// It defines the pooled array that Samples' population layout, pooled
// by copy, must reproduce bit for bit.

// sample is one logged observation and the population it joins.
type sample struct {
	v          float64
	kind, name int32
}

type refLog struct {
	log     []sample
	names   [2][]string
	ids     [2]map[string]int32
	iter    int
	lastEnd float64
}

func newRefLog() *refLog { return &refLog{ids: [2]map[string]int32{{}, {}}, iter: -1} }

func (s *refLog) add(kind, name int32, v float64) {
	s.log = append(s.log, sample{v: v, kind: kind, name: name})
}

func (s *refLog) id(table int, name string) int32 {
	id, ok := s.ids[table][name]
	if !ok {
		id = int32(len(s.names[table]))
		s.ids[table][name] = id
		s.names[table] = append(s.names[table], name)
	}
	return id
}

func (s *refLog) Op(o *sim.Op) {
	if o.Iter == s.iter {
		s.add(kindT1, 0, max(o.Start-s.lastEnd, 0))
	}
	s.iter, s.lastEnd = o.Iter, o.End
	id := s.id(opNames, o.Name)
	calls := o.Calls
	if len(calls) == 0 {
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

func refMerge(parts []*refLog) *pooled {
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
	nOps := len(m.names[opNames])
	at := func(i int, x sample) int {
		switch x.kind {
		case kindT1:
			return 0
		case kindT4:
			return 1 + 3*nOps + remap[i][fnNames][x.name]
		}
		return 1 + int(x.kind)*nOps + remap[i][opNames][x.name]
	}
	m.start = make([]int, 2+3*nOps+len(m.names[fnNames]))
	for i, p := range parts {
		for _, x := range p.log {
			m.start[at(i, x)+1]++
		}
	}
	for j := 1; j < len(m.start); j++ {
		m.start[j] += m.start[j-1]
	}
	m.vals = make([]float64, m.start[len(m.start)-1])
	next := slices.Clone(m.start)
	for i, p := range parts {
		for _, x := range p.log {
			j := at(i, x)
			m.vals[next[j]] = x.v
			next[j]++
		}
	}
	return m
}

// tee shows each op to both observers.
type tee [2]sim.Observer

func (t tee) Op(o *sim.Op) { t[0].Op(o); t[1].Op(o) }

// samePooled reports whether two pooled sets are bit-identical.
func samePooled(a, b *pooled) bool {
	return slices.Equal(a.names[0], b.names[0]) && slices.Equal(a.names[1], b.names[1]) &&
		slices.Equal(a.start, b.start) &&
		slices.EqualFunc(a.vals, b.vals, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// checkPools pools the first 1, 3 and len(runs) runs both ways.
func checkPools(t *testing.T, name string, runs []*Samples, logs []*refLog) {
	t.Helper()
	for i, s := range runs {
		if s.Len() != len(logs[i].log) {
			t.Fatalf("%s run %d: %d samples, the log has %d", name, i, s.Len(), len(logs[i].log))
		}
	}
	for _, n := range []int{1, 3, len(runs)} {
		if got, want := merge(runs[:n]), refMerge(logs[:n]); !samePooled(got, want) {
			t.Errorf("%s pooled %d at a time: the layout's pool differs from the log's", name, n)
		}
	}
}

// TestLayoutPoolsAsTheLog: profiled runs of a DLRM, a CNN and a
// Transformer, at one, two and 30 recorded iterations, pool to the
// reference log's array 1, 3 and 12 runs at a time, and so do trace
// replays.
func TestLayoutPoolsAsTheLog(t *testing.T) {
	workloads := []string{models.NameDLRMDefault, models.NameResNet50, models.NameTransformer}
	batches := []int64{256, 8, 32}
	graphs := make([]*models.Model, len(workloads))
	for i, w := range workloads {
		m, err := models.Build(w, batches[i])
		if err != nil {
			t.Fatal(err)
		}
		graphs[i] = m
	}
	for _, iters := range []int{1, 2, 30} {
		var runs []*Samples
		var logs []*refLog
		for i := range 12 {
			w := i % len(workloads)
			s, ref := newSamples(iters), newRefLog()
			sim.Run(graphs[w].Graph, sim.Config{
				Platform: hw.All()[i%len(hw.All())], Seed: uint64(i), Warmup: 1, Iters: iters,
				Profile: i%2 == 0, Workload: workloads[w], Observer: tee{s, ref},
			})
			s.seal()
			runs, logs = append(runs, s), append(logs, ref)
		}
		checkPools(t, fmt.Sprintf("%d iterations", iters), runs, logs)
	}
	var runs []*Samples
	var logs []*refLog
	for i := range 3 {
		tr := profiledTrace(t, models.DLRMNames()[i], 512, uint64(20+i))
		ref := newRefLog()
		replay(tr, ref)
		runs, logs = append(runs, NewCollector().extract(tr)), append(logs, ref)
	}
	checkPools(t, "trace replay", runs, logs)
}

// dropOp hides one op of one iteration from obs.
type dropOp struct {
	obs      sim.Observer
	iter, op int
	seen     int
}

func (d *dropOp) Op(o *sim.Op) {
	if o.Iter == d.iter {
		d.seen++
		if d.seen-1 == d.op {
			return
		}
	}
	d.obs.Op(o)
}

// TestRecorderPanicsOnAShortIteration: an iteration that runs fewer ops
// than the first has no layout to go by, so recording it panics, whether
// the missing op is the second iteration's first, one in the middle of
// a later one, or the run's last.
func TestRecorderPanicsOnAShortIteration(t *testing.T) {
	tr := profiledTrace(t, models.NameDLRMDefault, 512, 16)
	ops := len(tr.EventTree(0))
	for _, drop := range []dropOp{{iter: 1, op: 0}, {iter: 7, op: ops / 2}, {iter: tr.Iters - 1, op: ops - 1}} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "overhead: ") {
					t.Errorf("dropping op %d of iteration %d: recorder panic %q", drop.op, drop.iter, msg)
				}
			}()
			s := newSamples(tr.Iters)
			drop.obs = s
			replay(tr, &drop)
			s.seal()
		}()
	}
}
