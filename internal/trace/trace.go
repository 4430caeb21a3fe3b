// Package trace is the reference event log of a simulated run. Record
// runs the simulator with a Trace as its Observer, which writes each op
// as profiler-style events, and the analyses the paper's "Analysis
// Track" performs on a trace — per-batch iteration times, device
// active/idle breakdowns (Fig. 5), GPU utilization (Fig. 1), and the
// per-op event tree the overhead extractor walks — read them back. No
// program links this package: the simulator measures those numbers
// itself (sim.Result), and the golden and equivalence suites check them
// against this log.
//
// A trace mirrors what PyTorch's profiler (Kineto) records: host-side op
// spans, host-side CUDA runtime calls (cudaLaunchKernel /
// cudaMemcpyAsync), and device-side kernel spans, each attributed to an
// op and an iteration. All times are in microseconds.
//
//lint:allow unlinked golden reference: the event log the sim and overhead golden digests hash
package trace

import (
	"cmp"
	"fmt"
	"slices"

	"dlrmperf/internal/graph"
	"dlrmperf/internal/sim"
)

// EventKind distinguishes trace event types.
type EventKind int

// Event kinds.
const (
	// OpSpan is a host-side top-level operator call.
	OpSpan EventKind = iota
	// RuntimeCall is a host-side CUDA runtime function (one per launch).
	RuntimeCall
	// KernelSpan is a device-side kernel execution.
	KernelSpan
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case OpSpan:
		return "op"
	case RuntimeCall:
		return "runtime"
	case KernelSpan:
		return "kernel"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one trace record.
type Event struct {
	Kind  EventKind
	Name  string  // op name, runtime function name, or kernel name
	Op    string  // owning op name (for runtime calls and kernels)
	Start float64 // µs
	End   float64 // µs
	Iter  int
	Node  int // graph node ID
	// Seq orders runtime calls / kernels within their op.
	Seq int
}

// Duration returns End-Start.
func (e Event) Duration() float64 { return e.End - e.Start }

// Trace is an event log over a multi-iteration run. The analyses scan
// the whole log for each iteration they read, so the events may come in
// any order.
type Trace struct {
	Events []Event
	// Iters is the number of recorded (post-warmup) iterations.
	Iters int
	// IterSpans records [start, end] per iteration, where end includes
	// the device drain (the measured per-batch training time).
	IterSpans [][2]float64
}

// Record simulates g under cfg with the trace as its Observer and
// returns the run's event log beside its result.
func Record(g *graph.Graph, cfg sim.Config) (*Trace, *sim.Result) {
	t := &Trace{}
	cfg.Observer = t
	res := sim.Run(g, cfg)
	t.Iters, t.IterSpans = len(res.IterSpans), res.IterSpans
	return t, res
}

// Op implements sim.Observer: it appends the op's runtime calls, each
// followed by the kernel it launched, then the op span.
func (t *Trace) Op(o *sim.Op) {
	for i, c := range o.Calls {
		t.Events = append(t.Events,
			Event{Kind: RuntimeCall, Name: c.Fn, Op: o.Name, Start: c.Start, End: c.End, Iter: o.Iter, Node: o.Node, Seq: i},
			Event{Kind: KernelSpan, Name: c.Kernel.String(), Op: o.Name, Start: c.KernelStart, End: c.KernelEnd, Iter: o.Iter, Node: o.Node, Seq: i})
	}
	t.Events = append(t.Events, Event{Kind: OpSpan, Name: o.Name, Op: o.Name, Start: o.Start, End: o.End, Iter: o.Iter, Node: o.Node})
}

// IterationTimes returns the per-batch training time of each iteration.
func (t *Trace) IterationTimes() []float64 {
	out := make([]float64, len(t.IterSpans))
	for i, s := range t.IterSpans {
		out[i] = s[1] - s[0]
	}
	return out
}

// MeanIterationTime returns the average per-batch time.
func (t *Trace) MeanIterationTime() float64 {
	ts := t.IterationTimes()
	if len(ts) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range ts {
		s += v
	}
	return s / float64(len(ts))
}

// ActiveTime returns the total device-active time of one iteration: the
// length of the union of its kernel spans. The simulator sums its spans
// instead, which is the same number only while they are disjoint and in
// launch order; this union is the reference that holds it to that.
func (t *Trace) ActiveTime(iter int) float64 {
	var spans [][2]float64
	for _, e := range t.Events {
		if e.Kind == KernelSpan && e.Iter == iter {
			spans = append(spans, [2]float64{e.Start, e.End})
		}
	}
	return unionLength(spans)
}

// unionLength returns the length of the union of spans, which it sorts.
func unionLength(spans [][2]float64) float64 {
	if len(spans) == 0 {
		return 0
	}
	// The union does not depend on how equal starts are ordered.
	slices.SortFunc(spans, func(a, b [2]float64) int { return cmp.Compare(a[0], b[0]) })
	total := 0.0
	curStart, curEnd := spans[0][0], spans[0][1]
	for _, s := range spans[1:] {
		if s[0] > curEnd {
			total += curEnd - curStart
			curStart, curEnd = s[0], s[1]
			continue
		}
		if s[1] > curEnd {
			curEnd = s[1]
		}
	}
	return total + (curEnd - curStart)
}

// MeanActiveTime averages ActiveTime over all iterations.
func (t *Trace) MeanActiveTime() float64 {
	if t.Iters == 0 {
		return 0
	}
	s := 0.0
	for i := 0; i < t.Iters; i++ {
		s += t.ActiveTime(i)
	}
	return s / float64(t.Iters)
}

// Utilization returns mean active time over mean iteration time — the
// paper's "GPU utilization" metric of Fig. 1.
func (t *Trace) Utilization() float64 {
	it := t.MeanIterationTime()
	if it == 0 {
		return 0
	}
	return t.MeanActiveTime() / it
}

// Breakdown is sim.Result.Breakdown over the log's kernel spans: device
// time per op, averaged per iteration, with "others" and "Idle" — the
// Fig. 5 analysis.
func (t *Trace) Breakdown(minShare float64) []sim.BreakdownEntry {
	r := &sim.Result{IterSpans: t.IterSpans, MeanIterTime: t.MeanIterationTime(), MeanActiveTime: t.MeanActiveTime(), DeviceTime: map[string]float64{}}
	for _, e := range t.Events {
		if e.Kind == KernelSpan {
			r.DeviceTime[e.Op] += e.Duration()
		}
	}
	return r.Breakdown(minShare)
}

// OpEvents groups one iteration's events by op occurrence, in host order:
// each element holds the op span and its runtime calls and kernels in
// Seq order. This is the event-tree view the overhead extractor walks.
// The events are pointers into the trace's log, not copies.
type OpEvents struct {
	Span    *Event
	Runtime []*Event
	Kernels []*Event
}

// EventTree returns per-iteration op groupings: the iteration's op
// spans by start time, each with the runtime calls and kernels that
// carry its Node (the last such span, when several share a Node).
func (t *Trace) EventTree(iter int) []OpEvents {
	var out []OpEvents
	for i := range t.Events {
		if e := &t.Events[i]; e.Kind == OpSpan && e.Iter == iter {
			out = append(out, OpEvents{Span: e})
		}
	}
	slices.SortStableFunc(out, func(a, b OpEvents) int { return cmp.Compare(a.Span.Start, b.Span.Start) })
	byNode := make(map[int]int, len(out))
	for i, oe := range out {
		byNode[oe.Span.Node] = i
	}
	for i := range t.Events {
		e := &t.Events[i]
		if op, ok := byNode[e.Node]; ok && e.Iter == iter {
			switch e.Kind {
			case RuntimeCall:
				out[op].Runtime = append(out[op].Runtime, e)
			case KernelSpan:
				out[op].Kernels = append(out[op].Kernels, e)
			}
		}
	}
	bySeq := func(a, b *Event) int { return cmp.Compare(a.Seq, b.Seq) }
	for i := range out {
		slices.SortStableFunc(out[i].Runtime, bySeq)
		slices.SortStableFunc(out[i].Kernels, bySeq)
	}
	return out
}
