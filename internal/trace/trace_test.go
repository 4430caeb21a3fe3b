package trace

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// synthetic builds a two-iteration trace with known structure:
// iteration i has two ops; op A launches two kernels, op B none.
func synthetic() *Trace {
	tr := &Trace{Iters: 2}
	for iter := 0; iter < 2; iter++ {
		base := float64(iter) * 100
		tr.Events = append(tr.Events,
			Event{Kind: OpSpan, Name: "A", Op: "A", Start: base + 0, End: base + 30, Iter: iter, Node: 1},
			Event{Kind: RuntimeCall, Name: "cudaLaunchKernel", Op: "A", Start: base + 5, End: base + 10, Iter: iter, Node: 1, Seq: 0},
			Event{Kind: RuntimeCall, Name: "cudaLaunchKernel", Op: "A", Start: base + 15, End: base + 20, Iter: iter, Node: 1, Seq: 1},
			Event{Kind: KernelSpan, Name: "k0", Op: "A", Start: base + 12, End: base + 22, Iter: iter, Node: 1, Seq: 0},
			Event{Kind: KernelSpan, Name: "k1", Op: "A", Start: base + 25, End: base + 40, Iter: iter, Node: 1, Seq: 1},
			Event{Kind: OpSpan, Name: "B", Op: "B", Start: base + 35, End: base + 45, Iter: iter, Node: 2},
		)
		tr.IterSpans = append(tr.IterSpans, [2]float64{base, base + 50})
	}
	return tr
}

func TestIterationTimes(t *testing.T) {
	tr := synthetic()
	ts := tr.IterationTimes()
	if len(ts) != 2 || ts[0] != 50 || ts[1] != 50 {
		t.Fatalf("IterationTimes = %v", ts)
	}
	if tr.MeanIterationTime() != 50 {
		t.Errorf("mean = %v", tr.MeanIterationTime())
	}
}

func TestActiveTime(t *testing.T) {
	tr := synthetic()
	// Kernels: [12,22] + [25,40] = 10 + 15 = 25 per iteration.
	if got := tr.ActiveTime(0); got != 25 {
		t.Errorf("ActiveTime = %v, want 25", got)
	}
	if got := tr.MeanActiveTime(); got != 25 {
		t.Errorf("MeanActiveTime = %v", got)
	}
}

func TestUtilization(t *testing.T) {
	tr := synthetic()
	if got := tr.Utilization(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Utilization = %v, want 0.5", got)
	}
}

func TestActiveTimeMergesOverlaps(t *testing.T) {
	tr := &Trace{Iters: 1, IterSpans: [][2]float64{{0, 100}}}
	tr.Events = []Event{
		{Kind: KernelSpan, Start: 0, End: 50, Iter: 0},
		{Kind: KernelSpan, Start: 25, End: 75, Iter: 0}, // overlaps
	}
	if got := tr.ActiveTime(0); got != 75 {
		t.Errorf("overlapping spans ActiveTime = %v, want 75", got)
	}
}

func TestBreakdown(t *testing.T) {
	tr := synthetic()
	entries := tr.Breakdown(0)
	// Op A: 25 µs device time, idle = 50-25 = 25.
	var a, idle float64
	for _, e := range entries {
		switch e.Op {
		case "A":
			a = e.Time
		case "Idle":
			idle = e.Time
		}
	}
	if a != 25 {
		t.Errorf("op A device time = %v", a)
	}
	if idle != 25 {
		t.Errorf("idle = %v", idle)
	}
	// Idle is always the last entry.
	if entries[len(entries)-1].Op != "Idle" {
		t.Error("Idle not last entry")
	}
}

func TestBreakdownFoldsSmallOps(t *testing.T) {
	tr := synthetic()
	// With a huge threshold, op A folds into "others".
	entries := tr.Breakdown(0.9)
	for _, e := range entries {
		if e.Op == "A" {
			t.Error("op A should have been folded into others")
		}
	}
	foundOthers := false
	for _, e := range entries {
		if e.Op == "others" {
			foundOthers = true
		}
	}
	if !foundOthers {
		t.Error("no others entry")
	}
}

func TestEventTree(t *testing.T) {
	tr := synthetic()
	tree := tr.EventTree(1)
	if len(tree) != 2 {
		t.Fatalf("tree size = %d", len(tree))
	}
	if tree[0].Span.Name != "A" || tree[1].Span.Name != "B" {
		t.Errorf("tree order: %s, %s", tree[0].Span.Name, tree[1].Span.Name)
	}
	if len(tree[0].Runtime) != 2 || len(tree[0].Kernels) != 2 {
		t.Errorf("op A children: %d runtime, %d kernels", len(tree[0].Runtime), len(tree[0].Kernels))
	}
	if len(tree[1].Runtime) != 0 {
		t.Error("op B should have no runtime calls")
	}
	// Children sorted by Seq.
	if tree[0].Runtime[0].Seq != 0 || tree[0].Runtime[1].Seq != 1 {
		t.Error("runtime calls not in Seq order")
	}
}

func TestEmptyTrace(t *testing.T) {
	tr := &Trace{}
	if tr.MeanIterationTime() != 0 || tr.MeanActiveTime() != 0 || tr.Utilization() != 0 {
		t.Error("empty trace should report zeros")
	}
	if tr.Breakdown(0) != nil {
		t.Error("empty trace breakdown should be nil")
	}
}

func TestEventKindString(t *testing.T) {
	if OpSpan.String() != "op" || RuntimeCall.String() != "runtime" || KernelSpan.String() != "kernel" {
		t.Error("EventKind strings wrong")
	}
}

// TestBreakdownDeterministic: the same trace gives the same breakdown on
// every call. "others" used to be summed in map order, whose float sum
// moves in the last bits, and ops of equal time kept map order.
func TestBreakdownDeterministic(t *testing.T) {
	tr := &Trace{Iters: 1, IterSpans: [][2]float64{{0, 1000}}}
	add := func(op string, d float64) {
		tr.Events = append(tr.Events, Event{Kind: KernelSpan, Name: op, Op: op, Start: 0, End: d})
	}
	add("big_a", 100)
	add("big_b", 100)
	for i := 0; i < 40; i++ {
		add(fmt.Sprintf("small_%02d", i), 1/float64(i+3))
	}
	want := tr.Breakdown(0.005)
	if want[0].Op != "big_a" || want[1].Op != "big_b" || want[2].Op != "others" {
		t.Fatalf("breakdown order %+v, want big_a, big_b, others", want[:3])
	}
	for i := 0; i < 200; i++ {
		if got := tr.Breakdown(0.005); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: %+v, first call %+v", i, got, want)
		}
	}
}
