// Package sim is the discrete-event simulator that stands in for the
// paper's GPU testbed: it executes an execution graph the way the
// PyTorch + CUDA stack does — a host thread issuing operators with
// stochastic per-type overheads (T1..T5), kernels launched asynchronously
// onto one device stream, the device draining them in launch order —
// and shows every recorded op to an Observer, the way a profiler sees
// it. One stream is what Algorithm 1 models: a single device clock.
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

// Op is one recorded op: its iteration and graph node ID, its host
// span, and its runtime calls in launch order.
type Op struct {
	Iter, Node int
	Name       string
	Start, End float64
	Calls      []Call
}

// Call is one CUDA runtime call, the function and its host span, with
// the kernel it launched and that kernel's device span. Kernel points
// into the run's plan, so a call is small to copy.
type Call struct {
	Fn                     string
	Start, End             float64
	Kernel                 *kernels.Kernel
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
	// the sum of the iteration's kernel spans, which the one stream keeps
	// disjoint.
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
// kernels (the "+1 µs" granularity Algorithm 1 models).
const interKernelGap = 0.8

// nodePlan is everything about one graph node that does not change
// between iterations, resolved once before the loop: names, each
// kernel's noise-free time, and the overhead distributions with their
// log-normal parameters already derived. What is left inside the loop
// is the draws and the timeline arithmetic.
type nodePlan struct {
	id             int
	opSlot         int // index into the per-op device-time table
	op             string
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
// returns the plan with the names of the ops that launch kernels, in
// first-seen order. A counting pass over the launches sizes one slice
// that holds every node's kernels.
func planNodes(g *graph.Graph, dev *kernels.Device, ovh *Sampler) (plan []nodePlan, ops []string) {
	launches := 0
	for _, ks := range g.Launches() {
		launches += len(ks)
	}
	all := make([]kernelPlan, 0, launches)
	plan = make([]nodePlan, 0, len(g.Nodes))
	opSlots := map[string]int{}
	// dists holds each op name's T1, T2, T3 and T5 distributions.
	dists := map[string][4]dist{}
	launchT4, memcpyT4 := ovh.t4Dist(kernels.RTLaunchKernel), ovh.t4Dist(kernels.RTMemcpyAsync)
	for node, ks := range g.Launches() {
		op := node.Op.Name()
		d, ok := dists[op]
		if !ok {
			d = [4]dist{ovh.opDist(T1, op), ovh.opDist(T2, op), ovh.opDist(T3, op), ovh.opDist(T5, op)}
			dists[op] = d
		}
		n := nodePlan{id: int(node.ID), op: op, t1: d[0], t2: d[1], t3: d[2], t5: d[3]}
		for i := range ks {
			k := &ks[i]
			fn, t4 := k.Kind.RuntimeCall(), launchT4
			if fn == kernels.RTMemcpyAsync {
				t4 = memcpyT4
			}
			all = append(all, kernelPlan{base: dev.BaseTime(k), k: *k, fn: fn, t4: t4})
		}
		if len(ks) > 0 {
			n.kernels = all[len(all)-len(ks):]
			if _, ok := opSlots[op]; !ok {
				opSlots[op] = len(ops)
				ops = append(ops, op)
			}
			n.opSlot = opSlots[op]
		}
		plan = append(plan, n)
	}
	return plan, ops
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
	plan, ops := planNodes(g, dev, ovh)
	profCPU, profGPU := ovh.profilerDists()

	res := &Result{IterSpans: make([][2]float64, 0, cfg.Iters)}
	o := &Op{}
	deviceTime := make([]float64, len(ops))
	iterTime, active := 0.0, 0.0
	// host is the host clock, deviceFree the device's: when its last
	// kernel ends. A kernel launched on the one stream starts after the
	// kernel before it, and so after every producer's.
	host, deviceFree := 0.0, 0.0

	total := cfg.Warmup + cfg.Iters
	for it := 0; it < total; it++ {
		rec := it >= cfg.Warmup
		iterStart := host
		// The iteration's kernel spans are disjoint and come in launch
		// order, so their sum is its active time.
		iterActive := 0.0

		for ni := range plan {
			n := &plan[ni]
			o.Calls = o.Calls[:0]
			// T1: gap before the op.
			host += ovh.draw(n.t1)
			opStart := host
			if cfg.Profile {
				host += ovh.rng.Draw(profCPU)
			}

			if len(n.kernels) > 0 {
				host += ovh.draw(n.t2)
				for i := range n.kernels {
					k := &n.kernels[i]
					rtStart := host
					host += ovh.draw(k.t4)
					rtEnd := host
					if cfg.Profile {
						host += ovh.rng.Draw(profGPU)
					}

					start := max(rtEnd+cfg.Platform.GPU.KernelLaunchLatency, deviceFree+interKernelGap)
					end := start + dev.Noisy(k.base)
					deviceFree = end

					if rec {
						o.Calls = append(o.Calls, Call{k.fn, rtStart, rtEnd, &k.k, start, end})
					}
					if i < len(n.kernels)-1 {
						host += ovh.draw(n.t5)
					}
				}
				host += ovh.draw(n.t3)
			} else {
				// Host-only op: the T5-style body of Algorithm 1's else
				// branch.
				host += ovh.draw(n.t5)
			}

			if !rec {
				continue
			}
			for _, c := range o.Calls {
				iterActive += c.KernelEnd - c.KernelStart
				deviceTime[n.opSlot] += c.KernelEnd - c.KernelStart
			}
			if cfg.Observer != nil {
				o.Iter, o.Node, o.Name, o.Start, o.End = it-cfg.Warmup, n.id, n.op, opStart, host
				cfg.Observer.Op(o)
			}
		}

		// Iteration boundary: the training loop synchronizes (loss read /
		// next-batch handoff), so the batch time includes the drain.
		iterEnd := max(host, deviceFree)
		if rec {
			res.IterSpans = append(res.IterSpans, [2]float64{iterStart, iterEnd})
			iterTime += iterEnd - iterStart
			active += iterActive
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
