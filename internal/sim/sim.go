// Package sim is the discrete-event simulator that stands in for the
// paper's GPU testbed: it executes an execution graph the way the
// PyTorch + CUDA stack does — a host thread issuing operators with
// stochastic per-type overheads (T1..T5), kernels launched asynchronously
// onto device streams, the device draining them in stream order — and
// shows every recorded op to an Observer, the way a profiler sees it.
//
// Everything the paper *measures* (per-batch training time, GPU active
// time, utilization, breakdowns, overhead samples) is produced here;
// everything the paper *predicts* lives in internal/perfmodel and
// internal/predict, which never see the simulator's internals.
package sim

import (
	"cmp"
	"maps"
	"slices"

	"dlrmperf/internal/graph"
	"dlrmperf/internal/hw"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/tensor"
	"dlrmperf/internal/xrand"
)

// Config controls a simulated run.
type Config struct {
	Platform hw.Platform
	// Seed drives every stochastic component of the run.
	Seed uint64
	// Warmup iterations are executed but not recorded (the paper warms up
	// for 5 iterations before measuring).
	Warmup int
	// Iters is the number of recorded iterations.
	Iters int
	// Profile injects profiler overheads into host time, as collecting a
	// trace does on real hardware. Measured E2E runs use Profile=false;
	// overhead-extraction runs use Profile=true.
	Profile bool
	// Workload names the model being run; it induces the mild per-op
	// overhead bias that breaks exact model-independence (see
	// NewSampler).
	Workload string
	// Observer, when set, is shown every recorded op as it is computed.
	// It changes nothing about the run: the draws and the Result are the
	// same with or without one.
	Observer Observer
}

// Observer is shown each recorded op of a run in host order. The Op and
// its Calls are a buffer the simulator reuses for the next op.
type Observer interface {
	Op(o *Op)
}

// Op is one recorded op: its iteration, graph node ID and device stream,
// its host span, and its runtime calls in launch order.
type Op struct {
	Iter, Node, Stream int
	Name               string
	Start, End         float64
	Calls              []Call
}

// Call is one CUDA runtime call, the function and its host span, with
// the kernel it launched and that kernel's device span.
type Call struct {
	Fn                     string
	Start, End             float64
	Kernel                 kernels.Kernel
	KernelStart, KernelEnd float64
}

// Result is what a run measures. It keeps the numbers, not the events:
// an Observer is shown those as they happen.
type Result struct {
	// IterSpans records [start, end] per recorded iteration, where end
	// includes the device drain.
	IterSpans [][2]float64
	// MeanIterTime is the measured per-batch training time in µs.
	MeanIterTime float64
	// MeanActiveTime is the measured device active time per batch in µs:
	// the union of the iteration's kernel spans across streams.
	MeanActiveTime float64
	// DeviceTime is each op's kernel time in µs over all recorded
	// iterations, summed in launch order.
	DeviceTime map[string]float64
}

// Utilization returns mean active time over mean iteration time — the
// paper's "GPU utilization" metric of Fig. 1.
func (r *Result) Utilization() float64 {
	if r.MeanIterTime == 0 {
		return 0
	}
	return r.MeanActiveTime / r.MeanIterTime
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
func (r *Result) Breakdown(minShare float64) []BreakdownEntry {
	iters := len(r.IterSpans)
	if iters == 0 {
		return nil
	}
	iterTime := r.MeanIterTime
	var entries []BreakdownEntry
	others := 0.0
	for _, op := range slices.Sorted(maps.Keys(r.DeviceTime)) {
		mean := r.DeviceTime[op] / float64(iters)
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
	idle := max(iterTime-r.MeanActiveTime, 0)
	return append(entries, BreakdownEntry{Op: "Idle", Time: idle, Share: idle / iterTime})
}

// interKernelGap is the device-side scheduling gap between back-to-back
// kernels on one stream (the "+1 µs" granularity Algorithm 1 models).
const interKernelGap = 0.8

// nodePlan is everything about one graph node that does not change
// between iterations, resolved once before the loop: names, producer
// positions, each kernel's noise-free time, and the overhead
// distributions with their log-normal parameters already derived. What
// is left inside the loop is the draws and the timeline arithmetic.
type nodePlan struct {
	id, stream     int
	streamSlot     int // index into the per-stream free-time table
	opSlot         int // index into the per-op device-time table
	op             string
	deps           []int // positions of the producing nodes in the plan
	kernels        []kernelPlan
	t1, t2, t3, t5 dist
}

type kernelPlan struct {
	base float64 // kernels.Device.BaseTime: carries the per-shape quirk hash
	k    kernels.Kernel
	fn   string // the CUDA runtime function that launches it
	t4   dist
}

// planNodes resolves g's nodes against the device and the host, and
// returns the plan with the number of streams it uses, the number of
// kernels one iteration launches, and the names of the ops that launch
// them, in first-seen order.
func planNodes(g *graph.Graph, dev *kernels.Device, ovh *Sampler) (plan []nodePlan, streams, launches int, ops []string) {
	plan = make([]nodePlan, len(g.Nodes))
	pos := make(map[graph.NodeID]int, len(g.Nodes))
	slots, opSlots := map[int]int{}, map[string]int{}
	t4 := map[string]dist{RTLaunchKernel: ovh.t4Dist(RTLaunchKernel), RTMemcpyAsync: ovh.t4Dist(RTMemcpyAsync)}
	var in []tensor.Meta
	var ks []kernels.Kernel
	for i, node := range g.Nodes {
		op := node.Op.Name()
		if _, ok := slots[node.Stream]; !ok {
			slots[node.Stream] = len(slots)
		}
		n := nodePlan{
			id: int(node.ID), stream: node.Stream, streamSlot: slots[node.Stream], op: op,
			t1: ovh.opDist(T1, op), t2: ovh.opDist(T2, op), t3: ovh.opDist(T3, op), t5: ovh.opDist(T5, op),
		}
		for _, d := range g.Deps(node) {
			// A producer the graph no longer holds never becomes ready
			// later than time zero, which constrains nothing.
			if p, ok := pos[d]; ok {
				n.deps = append(n.deps, p)
			}
		}
		in = g.InputMetas(in[:0], node.Inputs)
		ks = node.Op.AppendKernels(ks[:0], in)
		if len(ks) > 0 {
			n.kernels = make([]kernelPlan, 0, len(ks))
		}
		for _, k := range ks {
			fn := RTLaunchKernel
			switch k.Kind() {
			case kernels.KindMemcpyH2D, kernels.KindMemcpyD2H, kernels.KindMemcpyD2D:
				fn = RTMemcpyAsync
			}
			n.kernels = append(n.kernels, kernelPlan{base: dev.BaseTime(k), k: k, fn: fn, t4: t4[fn]})
		}
		if len(n.kernels) > 0 {
			if _, ok := opSlots[op]; !ok {
				opSlots[op] = len(ops)
				ops = append(ops, op)
			}
			n.opSlot = opSlots[op]
		}
		pos[node.ID] = i
		plan[i] = n
		launches += len(n.kernels)
	}
	return plan, len(slots), launches, ops
}

// Run simulates cfg.Warmup+cfg.Iters training iterations of g, shows
// each recorded op to cfg.Observer, and returns what the run measured.
func Run(g *graph.Graph, cfg Config) *Result {
	if cfg.Iters <= 0 {
		cfg.Iters = 1
	}
	root := xrand.New(cfg.Seed)
	dev := kernels.NewDevice(cfg.Platform.GPU, root.Split().Uint64())
	ovh := NewSampler(cfg.Platform.Host, root.Split().Uint64(), cfg.Workload)
	plan, streams, launches, ops := planNodes(g, dev, ovh)
	profCPU, profGPU := ovh.profilerDists()

	res := &Result{IterSpans: make([][2]float64, 0, cfg.Iters)}
	o := &Op{}
	deviceTime := make([]float64, len(ops))
	// spans holds the recorded iteration's kernel spans, whose union over
	// streams is its active time; the sums run over the iterations.
	spans := make([][2]float64, 0, launches)
	iterTime, active := 0.0, 0.0
	host := 0.0
	streamFree := make([]float64, streams)
	// deviceReady[i] is when plan[i]'s outputs exist on device.
	deviceReady := make([]float64, len(plan))

	total := cfg.Warmup + cfg.Iters
	for it := 0; it < total; it++ {
		rec := it >= cfg.Warmup
		iterStart := host

		for ni := range plan {
			n := &plan[ni]
			o.Calls = o.Calls[:0]
			// T1: gap before the op.
			host += ovh.draw(n.t1)
			opStart := host
			if cfg.Profile {
				host += ovh.rng.Draw(profCPU)
			}

			// Cross-dependency device readiness (matters across streams;
			// same-stream ordering is enforced by streamFree).
			depReady := 0.0
			for _, d := range n.deps {
				if r := deviceReady[d]; r > depReady {
					depReady = r
				}
			}

			if len(n.kernels) > 0 {
				host += ovh.draw(n.t2)
				lastEnd := depReady
				for i := range n.kernels {
					k := &n.kernels[i]
					rtStart := host
					host += ovh.draw(k.t4)
					rtEnd := host
					if cfg.Profile {
						host += ovh.rng.Draw(profGPU)
					}

					start := rtEnd + cfg.Platform.GPU.KernelLaunchLatency
					if sf := streamFree[n.streamSlot] + interKernelGap; sf > start {
						start = sf
					}
					if depReady > start {
						start = depReady
					}
					end := start + dev.Noisy(k.base)
					streamFree[n.streamSlot] = end
					if end > lastEnd {
						lastEnd = end
					}

					if rec {
						o.Calls = append(o.Calls, Call{k.fn, rtStart, rtEnd, k.k, start, end})
					}
					if i < len(n.kernels)-1 {
						host += ovh.draw(n.t5)
					}
				}
				host += ovh.draw(n.t3)
				deviceReady[ni] = lastEnd
			} else {
				// Host-only op: the T5-style body of Algorithm 1's else
				// branch.
				host += ovh.draw(n.t5)
				deviceReady[ni] = depReady
			}

			if !rec {
				continue
			}
			for _, c := range o.Calls {
				spans = append(spans, [2]float64{c.KernelStart, c.KernelEnd})
				deviceTime[n.opSlot] += c.KernelEnd - c.KernelStart
			}
			if cfg.Observer != nil {
				o.Iter, o.Node, o.Stream, o.Name, o.Start, o.End = it-cfg.Warmup, n.id, n.stream, n.op, opStart, host
				cfg.Observer.Op(o)
			}
		}

		// Iteration boundary: the training loop synchronizes (loss read /
		// next-batch handoff), so the batch time includes the drain.
		devEnd := 0.0
		for _, f := range streamFree {
			if f > devEnd {
				devEnd = f
			}
		}
		iterEnd := host
		if devEnd > iterEnd {
			iterEnd = devEnd
		}
		if rec {
			res.IterSpans = append(res.IterSpans, [2]float64{iterStart, iterEnd})
			iterTime += iterEnd - iterStart
			active += UnionLength(spans)
			spans = spans[:0]
		}
		host = iterEnd
	}

	res.MeanIterTime = iterTime / float64(cfg.Iters)
	res.MeanActiveTime = active / float64(cfg.Iters)
	res.DeviceTime = make(map[string]float64, len(ops))
	for i, op := range ops {
		res.DeviceTime[op] = deviceTime[i]
	}
	return res
}

// UnionLength returns the length of the union of spans, which it sorts.
func UnionLength(spans [][2]float64) float64 {
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
