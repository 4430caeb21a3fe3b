// Package trace defines the profiler trace format the simulator emits and
// the analyses the paper's "Analysis Track" performs on it: per-batch
// iteration times, device active/idle breakdowns (Fig. 5), GPU
// utilization (Fig. 1), and the per-op event structure the overhead
// extractor consumes.
//
// A trace mirrors what PyTorch's profiler (Kineto) records: host-side op
// spans, host-side CUDA runtime calls (cudaLaunchKernel /
// cudaMemcpyAsync), and device-side kernel spans, each attributed to an
// op and an iteration. All times are in microseconds.
package trace

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
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
	// Stream is the device stream (kernel events).
	Stream int
	// Seq orders runtime calls / kernels within their op.
	Seq int
}

// Duration returns End-Start.
func (e Event) Duration() float64 { return e.End - e.Start }

// Trace is an ordered event log over a multi-iteration run.
//
// The per-iteration analyses (ActiveTime, EventTree) read an iteration
// as one contiguous run of the log, found by binary search. An emitter
// that writes its events in non-decreasing Iter order — the simulator
// does — gets that for free; a log in any other order is regrouped
// once, into a stable by-iteration copy, on the first analysis. Either
// way Events must not change after the first analysis call.
type Trace struct {
	Events []Event
	// Iters is the number of recorded (post-warmup) iterations.
	Iters int
	// IterSpans records [start, end] per iteration, where end includes
	// the device drain (the measured per-batch training time).
	IterSpans [][2]float64

	groupOnce sync.Once
	grouped   []Event // Events itself when it is already in iteration order
}

// iteration returns the events of one iteration, in log order.
func (t *Trace) iteration(iter int) []Event {
	t.groupOnce.Do(func() {
		t.grouped = t.Events
		byIter := func(i, j int) bool { return t.grouped[i].Iter < t.grouped[j].Iter }
		if !sort.SliceIsSorted(t.grouped, byIter) {
			t.grouped = slices.Clone(t.Events)
			sort.SliceStable(t.grouped, byIter)
		}
	})
	ev := t.grouped
	lo := sort.Search(len(ev), func(i int) bool { return ev[i].Iter >= iter })
	n := sort.Search(len(ev)-lo, func(i int) bool { return ev[lo+i].Iter > iter })
	return ev[lo : lo+n]
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

// ActiveTime returns the total device-active time (union of kernel spans
// across streams) for one iteration.
func (t *Trace) ActiveTime(iter int) float64 {
	events := t.iteration(iter)
	spans := make([][2]float64, 0, len(events)/2)
	for i := range events {
		if e := &events[i]; e.Kind == KernelSpan {
			spans = append(spans, [2]float64{e.Start, e.End})
		}
	}
	return unionLength(spans)
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

// unionLength sums the length of the union of intervals.
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

// BreakdownEntry is one row of the device-time breakdown.
type BreakdownEntry struct {
	Op    string
	Time  float64 // mean device time per iteration, µs
	Share float64 // fraction of mean iteration time
}

// Breakdown attributes device-active time to ops (averaged per
// iteration), appends an "Idle" entry, and sorts by time descending, then
// by op — the Fig. 5 analysis. Ops below minShare are folded into
// "others", summed in op order, so the result is the same on every call.
func (t *Trace) Breakdown(minShare float64) []BreakdownEntry {
	if t.Iters == 0 {
		return nil
	}
	perOp := map[string]float64{}
	for _, e := range t.Events {
		if e.Kind == KernelSpan {
			perOp[e.Op] += e.Duration()
		}
	}
	iterTime := t.MeanIterationTime()
	active := t.MeanActiveTime()
	var entries []BreakdownEntry
	others := 0.0
	for _, op := range slices.Sorted(maps.Keys(perOp)) {
		mean := perOp[op] / float64(t.Iters)
		if iterTime > 0 && mean/iterTime < minShare {
			others += mean
			continue
		}
		entries = append(entries, BreakdownEntry{Op: op, Time: mean, Share: mean / iterTime})
	}
	slices.SortFunc(entries, func(a, b BreakdownEntry) int { return cmp.Or(cmp.Compare(b.Time, a.Time), cmp.Compare(a.Op, b.Op)) })
	if others > 0 {
		entries = append(entries, BreakdownEntry{Op: "others", Time: others, Share: others / iterTime})
	}
	idle := max(iterTime-active, 0)
	entries = append(entries, BreakdownEntry{Op: "Idle", Time: idle, Share: idle / iterTime})
	return entries
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
	events := t.iteration(iter)
	var spans []*Event
	for i := range events {
		if e := &events[i]; e.Kind == OpSpan {
			spans = append(spans, e)
		}
	}
	slices.SortStableFunc(spans, func(a, b *Event) int { return cmp.Compare(a.Start, b.Start) })
	out := make([]OpEvents, len(spans))
	byNode := make(map[int]int, len(spans))
	for i, s := range spans {
		out[i].Span = s
		byNode[s.Node] = i
	}

	// Children are carved out of one flat array, a run per op and kind,
	// instead of grown per op: find each child's op and count, carve
	// the runs, fill them in log order.
	owner := make([]int, len(events))
	counts := make([][2]int, len(out))
	children := 0
	for i := range events {
		e := &events[i]
		owner[i] = -1
		if op, ok := byNode[e.Node]; ok && (e.Kind == RuntimeCall || e.Kind == KernelSpan) {
			owner[i] = op
			counts[op][e.Kind-RuntimeCall]++
			children++
		}
	}
	flat := make([]*Event, children)
	for op, n := range counts {
		out[op].Runtime, flat = flat[:0:n[0]], flat[n[0]:]
		out[op].Kernels, flat = flat[:0:n[1]], flat[n[1]:]
	}
	for i, op := range owner {
		if op < 0 {
			continue
		}
		if e := &events[i]; e.Kind == RuntimeCall {
			out[op].Runtime = append(out[op].Runtime, e)
		} else {
			out[op].Kernels = append(out[op].Kernels, e)
		}
	}
	bySeq := func(a, b *Event) int { return cmp.Compare(a.Seq, b.Seq) }
	for i := range out {
		slices.SortStableFunc(out[i].Runtime, bySeq)
		slices.SortStableFunc(out[i].Kernels, bySeq)
	}
	return out
}
