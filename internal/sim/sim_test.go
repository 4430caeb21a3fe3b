package sim_test

import (
	"fmt"
	"math"
	"testing"

	"dlrmperf/internal/graph"
	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/ops"
	"dlrmperf/internal/sim"
	"dlrmperf/internal/tensor"
	"dlrmperf/internal/trace"
)

func smallGraph() *graph.Graph {
	g := graph.New()
	x := g.Input(tensor.New(256, 64))
	d := g.Apply(ops.ToDevice{}, x)
	h := g.Apply(ops.Linear{Out: 32}, d[0])
	r := g.Apply(ops.ReLU(), h[0])
	g.Apply(ops.View{}, r[0]) // host-only op
	return g
}

func v100() hw.Platform { return hw.V100Platform() }

func TestRunProducesConsistentTrace(t *testing.T) {
	tr, _ := trace.Record(smallGraph(), sim.Config{Platform: v100(), Seed: 1, Warmup: 2, Iters: 5})
	if tr.Iters != 5 || len(tr.IterSpans) != 5 {
		t.Fatalf("iters = %d spans = %d", tr.Iters, len(tr.IterSpans))
	}
	// Each iteration: 4 op spans, 3 runtime calls, 3 kernels.
	var opsN, rts, kerns int
	for _, e := range tr.Events {
		if e.Iter != 0 {
			continue
		}
		switch e.Kind {
		case trace.OpSpan:
			opsN++
		case trace.RuntimeCall:
			rts++
		case trace.KernelSpan:
			kerns++
		}
	}
	if opsN != 4 || rts != 3 || kerns != 3 {
		t.Errorf("iter 0 census: ops=%d rt=%d kernels=%d", opsN, rts, kerns)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := sim.Run(smallGraph(), sim.Config{Platform: v100(), Seed: 42, Warmup: 1, Iters: 5})
	b := sim.Run(smallGraph(), sim.Config{Platform: v100(), Seed: 42, Warmup: 1, Iters: 5})
	if a.MeanIterTime != b.MeanIterTime {
		t.Errorf("same seed, different iter time: %v vs %v", a.MeanIterTime, b.MeanIterTime)
	}
	c := sim.Run(smallGraph(), sim.Config{Platform: v100(), Seed: 43, Warmup: 1, Iters: 5})
	if a.MeanIterTime == c.MeanIterTime {
		t.Error("different seeds gave identical results")
	}
}

func TestEventOrderingInvariants(t *testing.T) {
	tr, _ := trace.Record(smallGraph(), sim.Config{Platform: v100(), Seed: 3, Warmup: 0, Iters: 3})
	for iter := 0; iter < 3; iter++ {
		tree := tr.EventTree(iter)
		for _, oe := range tree {
			if oe.Span.End < oe.Span.Start {
				t.Fatal("op span ends before it starts")
			}
			for i, rt := range oe.Runtime {
				if rt.Start < oe.Span.Start || rt.End > oe.Span.End {
					t.Errorf("runtime call %d outside its op span", i)
				}
			}
			for i, k := range oe.Kernels {
				// A kernel cannot start before its launch call completes.
				if k.Start < oe.Runtime[i].End {
					t.Errorf("kernel %d starts before its launch ends", i)
				}
			}
		}
	}
}

// TestKernelsSerializeOnStream: the one device stream starts each
// kernel strictly after the one before it ends, so an iteration's
// kernel spans are disjoint and in launch order, which is what lets a
// run sum them for its active time. Checked on every golden workload,
// device and profiling mode, in every recorded iteration.
func TestKernelsSerializeOnStream(t *testing.T) {
	for _, p := range hw.All() {
		for _, w := range goldenWorkloads {
			m, err := models.Build(w, goldenBatch)
			if err != nil {
				t.Fatal(err)
			}
			for _, profiled := range []bool{false, true} {
				key := fmt.Sprintf("%s/%s/profiled=%t", p.GPU.Name, w, profiled)
				tr, _ := trace.Record(m.Graph, goldenConfig(p, w, profiled))
				iter, prevEnd := -1, 0.0
				for _, e := range tr.Events {
					if e.Kind != trace.KernelSpan {
						continue
					}
					if e.Iter != iter {
						if e.Iter != iter+1 {
							t.Fatalf("%s: iteration %d's kernels follow iteration %d's", key, e.Iter, iter)
						}
						iter, prevEnd = e.Iter, math.Inf(-1)
					}
					if e.Start <= prevEnd {
						t.Fatalf("%s: iteration %d: kernel %s (node %d) starts at %v, before the kernel ahead of it ends at %v", key, iter, e.Name, e.Node, e.Start, prevEnd)
					}
					prevEnd = e.End
				}
				if iter != tr.Iters-1 {
					t.Errorf("%s: kernels in %d of %d iterations", key, iter+1, tr.Iters)
				}
			}
		}
	}
}

func TestIterationIncludesDeviceDrain(t *testing.T) {
	tr, _ := trace.Record(smallGraph(), sim.Config{Platform: v100(), Seed: 9, Warmup: 0, Iters: 4})
	for i, span := range tr.IterSpans {
		for _, e := range tr.Events {
			if e.Iter == i && e.End > span[1]+1e-9 {
				t.Fatalf("iter %d event ends after iteration end", i)
			}
		}
	}
}

func TestProfiledRunIsSlower(t *testing.T) {
	// Profiling adds ~20 µs per ~300 µs iteration; use enough iterations
	// for the sampling noise of two independent runs to average out.
	plain := sim.Run(smallGraph(), sim.Config{Platform: v100(), Seed: 11, Warmup: 2, Iters: 400})
	prof := sim.Run(smallGraph(), sim.Config{Platform: v100(), Seed: 11, Warmup: 2, Iters: 400, Profile: true})
	if prof.MeanIterTime <= plain.MeanIterTime {
		t.Errorf("profiling did not add overhead: %v <= %v", prof.MeanIterTime, plain.MeanIterTime)
	}
}

func TestUtilizationRisesWithBatch(t *testing.T) {
	m, err := models.Build(models.NameDLRMDefault, 512)
	if err != nil {
		t.Fatal(err)
	}
	utilAt := func(b int64) float64 {
		v, err := m.WithBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		r := sim.Run(v.Graph, sim.Config{Platform: v100(), Seed: 7, Warmup: 2, Iters: 8, Workload: m.Name})
		return r.Utilization()
	}
	low := utilAt(512)
	high := utilAt(4096)
	if high <= low {
		t.Errorf("utilization did not rise with batch: %v -> %v", low, high)
	}
	if low < 0.1 || low > 0.7 {
		t.Errorf("DLRM utilization at B=512 = %v, outside the paper's low-util band", low)
	}
	if high < 0.7 {
		t.Errorf("DLRM utilization at B=4096 = %v, too low", high)
	}
}

func TestCNNUtilizationHigh(t *testing.T) {
	if testing.Short() {
		t.Skip("resnet50 simulation in -short mode")
	}
	m, err := models.Build(models.NameResNet50, 32)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.Run(m.Graph, sim.Config{Platform: v100(), Seed: 7, Warmup: 1, Iters: 3, Workload: m.Name})
	if u := r.Utilization(); u < 0.9 {
		t.Errorf("resnet50 utilization = %v, want > 0.9 (Fig 1)", u)
	}
}
