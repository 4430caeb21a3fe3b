package trace

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"dlrmperf/internal/xrand"
)

// The naive references: one full scan of the log per iteration and per
// question, written apart from the analyses. They define the answers.

func refActiveTime(t *Trace, iter int) float64 {
	var spans [][2]float64
	for _, e := range t.Events {
		if e.Kind == KernelSpan && e.Iter == iter {
			spans = append(spans, [2]float64{e.Start, e.End})
		}
	}
	if len(spans) == 0 {
		return 0
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
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

func refMeanActiveTime(t *Trace) float64 {
	if t.Iters == 0 {
		return 0
	}
	s := 0.0
	for i := 0; i < t.Iters; i++ {
		s += refActiveTime(t, i)
	}
	return s / float64(t.Iters)
}

type refOpEvents struct {
	Span             Event
	Runtime, Kernels []Event
}

func refEventTree(t *Trace, iter int) []refOpEvents {
	var spans []Event
	for _, e := range t.Events {
		if e.Iter == iter && e.Kind == OpSpan {
			spans = append(spans, e)
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	out := make([]refOpEvents, len(spans))
	byNode := map[int]*refOpEvents{}
	for i, s := range spans {
		out[i] = refOpEvents{Span: s}
		byNode[s.Node] = &out[i]
	}
	for _, e := range t.Events {
		grp, ok := byNode[e.Node]
		if e.Iter != iter || !ok {
			continue
		}
		switch e.Kind {
		case RuntimeCall:
			grp.Runtime = append(grp.Runtime, e)
		case KernelSpan:
			grp.Kernels = append(grp.Kernels, e)
		}
	}
	for i := range out {
		sort.Slice(out[i].Runtime, func(a, b int) bool { return out[i].Runtime[a].Seq < out[i].Runtime[b].Seq })
		sort.Slice(out[i].Kernels, func(a, b int) bool { return out[i].Kernels[a].Seq < out[i].Kernels[b].Seq })
	}
	return out
}

func derefTree(tree []OpEvents) []refOpEvents {
	out := make([]refOpEvents, len(tree))
	for i, oe := range tree {
		out[i].Span = *oe.Span
		for _, e := range oe.Runtime {
			out[i].Runtime = append(out[i].Runtime, *e)
		}
		for _, e := range oe.Kernels {
			out[i].Kernels = append(out[i].Kernels, *e)
		}
	}
	return out
}

// randomEvents hand-builds a log the simulator never writes: per
// iteration a few ops with distinct start times (some sharing a Node,
// so the last span owns the children), kernels with overlapping spans,
// and children of a Node no span carries.
func randomEvents(rng *xrand.Rand) (events []Event, iters int) {
	iters = 1 + rng.Intn(4)
	for iter := 0; iter < iters; iter++ {
		base := 1000 * float64(iter)
		for op, nOps := 0, 1+rng.Intn(6); op < nOps; op++ {
			node := rng.Intn(5)
			start := base + 100*float64(op) + 50*rng.Float64()
			events = append(events, Event{Kind: OpSpan, Name: "op", Op: "op", Start: start, End: start + 40, Iter: iter, Node: node})
			if rng.Intn(4) == 0 {
				node = 7 // orphans: no span has this Node
			}
			for seq, n := 0, rng.Intn(4); seq < n; seq++ {
				at := start + 10*float64(seq)
				events = append(events,
					Event{Kind: RuntimeCall, Name: "launch", Op: "op", Start: at, End: at + 5, Iter: iter, Node: node, Seq: 10*op + seq},
					Event{Kind: KernelSpan, Name: "k", Op: "op", Start: at + 6, End: at + 6 + 80*rng.Float64(), Iter: iter, Node: node, Seq: 10*op + seq})
			}
		}
	}
	return events, iters
}

func checkAgainstReference(t *testing.T, tr *Trace) bool {
	t.Helper()
	ok := true
	if got, want := tr.MeanActiveTime(), refMeanActiveTime(tr); got != want {
		t.Errorf("MeanActiveTime = %v, reference %v", got, want)
		ok = false
	}
	for iter := -1; iter <= tr.Iters; iter++ {
		if got, want := tr.ActiveTime(iter), refActiveTime(tr, iter); got != want {
			t.Errorf("ActiveTime(%d) = %v, reference %v", iter, got, want)
			ok = false
		}
		if got, want := derefTree(tr.EventTree(iter)), refEventTree(tr, iter); !reflect.DeepEqual(got, want) {
			t.Errorf("EventTree(%d): %d ops, reference %d; they differ", iter, len(got), len(want))
			ok = false
		}
	}
	return ok
}

// TestAnalysesMatchNaiveReference: on a hand-built log shuffled across
// iterations and on the same log shuffled only within iterations, every
// per-iteration analysis answers what the full-scan reference answers,
// bit for bit.
func TestAnalysesMatchNaiveReference(t *testing.T) {
	property := func(seed uint64) bool {
		rng := xrand.New(seed)
		events, iters := randomEvents(rng)
		rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
		shuffled := &Trace{Events: events, Iters: iters}

		grouped := &Trace{Events: append([]Event(nil), events...), Iters: iters}
		sort.SliceStable(grouped.Events, func(i, j int) bool { return grouped.Events[i].Iter < grouped.Events[j].Iter })

		return checkAgainstReference(t, shuffled) && checkAgainstReference(t, grouped)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAnalyses: the analyses only read the log, so several
// goroutines may ask at the same time (a recorded trace is shared by
// every overhead extraction that pools it).
func TestConcurrentAnalyses(t *testing.T) {
	rng := xrand.New(5)
	events, iters := randomEvents(rng)
	rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
	tr := &Trace{Events: events, Iters: iters}
	want := refMeanActiveTime(tr)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := tr.MeanActiveTime(); got != want {
				t.Errorf("MeanActiveTime = %v, want %v", got, want)
			}
			for iter := 0; iter < iters; iter++ {
				tr.EventTree(iter)
			}
		}()
	}
	wg.Wait()
}
