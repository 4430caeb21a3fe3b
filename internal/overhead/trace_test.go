package overhead

import (
	"runtime"

	"dlrmperf/internal/sim"
	"dlrmperf/internal/trace"
)

// The trace-mode reference: a database extracted from a recorded event
// log, the way the paper's analyzer reads a profiler trace. The golden
// digests were recorded through it, and Profile must give its samples.

// FromTrace builds a database from a single workload's trace.
func FromTrace(tr *trace.Trace) *DB {
	return Shared([]*trace.Trace{tr})
}

// Shared builds the shared-overheads database by pooling the raw samples
// of several workloads' traces ("averaging the samples across the
// workloads collected in overhead analysis").
func Shared(trs []*trace.Trace) *DB {
	c := NewCollector()
	// The traces are at hand, so Pool has no error to report.
	db, _ := c.Pool(len(trs), runtime.GOMAXPROCS(0), func(i int) (*Samples, error) {
		return c.extract(trs[i]), nil
	})
	return db
}

// extract replays tr into Samples and ends the recording as Profile
// does.
func (c *Collector) extract(tr *trace.Trace) *Samples {
	s := newSamples(tr.Iters)
	replay(tr, s)
	s.seal()
	return s
}

// replay shows every iteration of tr to obs, op by op in host order.
func replay(tr *trace.Trace, obs sim.Observer) {
	o := &sim.Op{}
	for iter := 0; iter < tr.Iters; iter++ {
		for _, oe := range tr.EventTree(iter) {
			o.Iter, o.Name, o.Start, o.End, o.Calls = iter, oe.Span.Name, oe.Span.Start, oe.Span.End, o.Calls[:0]
			for _, rt := range oe.Runtime {
				o.Calls = append(o.Calls, sim.Call{Fn: rt.Name, Start: rt.Start, End: rt.End})
			}
			obs.Op(o)
		}
	}
}
