// Package sim is the discrete-event simulator that stands in for the
// paper's GPU testbed: it executes an execution graph the way the
// PyTorch + CUDA stack does — a host thread issuing operators with
// stochastic per-type overheads (T1..T5), kernels launched asynchronously
// onto device streams, the device draining them in stream order — and
// records profiler-style traces.
//
// Everything the paper *measures* (per-batch training time, GPU active
// time, utilization, breakdowns, overhead samples) is produced here;
// everything the paper *predicts* lives in internal/perfmodel and
// internal/predict, which never see the simulator's internals.
package sim

import (
	"dlrmperf/internal/graph"
	"dlrmperf/internal/hw"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/trace"
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
	// Observer, when set, receives every recorded op as it is computed
	// in place of the event log: the run emits no trace.Event and skips
	// the active-time union, with the same draws in the same order.
	Observer Observer
}

// Observer receives each recorded op of a run in host order: its
// iteration, name and host span, and its runtime calls in launch order.
// calls is a buffer the simulator reuses for the next op.
type Observer interface {
	Op(iter int, op string, start, end float64, calls []Call)
}

// Call is one CUDA runtime call: the function and its host span.
type Call struct {
	Fn         string
	Start, End float64
}

// Result bundles the trace of a run.
type Result struct {
	Trace *trace.Trace
	// MeanIterTime is the measured per-batch training time in µs.
	MeanIterTime float64
	// MeanActiveTime is the measured device active time per batch in µs.
	MeanActiveTime float64
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
	op             string
	deps           []int // positions of the producing nodes in the plan
	kernels        []kernelPlan
	t1, t2, t3, t5 dist
}

type kernelPlan struct {
	base float64 // kernels.Device.BaseTime: carries the per-shape quirk hash
	name string
	fn   string // the CUDA runtime function that launches it
	t4   dist
}

// planNodes resolves g's nodes against the device and the host, and
// returns the plan with the number of streams it uses and the number of
// events one recorded iteration emits.
func planNodes(g *graph.Graph, dev *kernels.Device, ovh *Sampler) (plan []nodePlan, streams, events int) {
	plan = make([]nodePlan, len(g.Nodes))
	pos := make(map[graph.NodeID]int, len(g.Nodes))
	slots := map[int]int{}
	t4 := map[string]dist{RTLaunchKernel: ovh.t4Dist(RTLaunchKernel), RTMemcpyAsync: ovh.t4Dist(RTMemcpyAsync)}
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
		for _, k := range g.NodeKernels(node) {
			fn := RTLaunchKernel
			switch k.Kind() {
			case kernels.KindMemcpyH2D, kernels.KindMemcpyD2H, kernels.KindMemcpyD2D:
				fn = RTMemcpyAsync
			}
			n.kernels = append(n.kernels, kernelPlan{base: dev.BaseTime(k), name: k.String(), fn: fn, t4: t4[fn]})
		}
		pos[node.ID] = i
		plan[i] = n
		events += 1 + 2*len(n.kernels)
	}
	return plan, len(slots), events
}

// Run simulates cfg.Warmup+cfg.Iters training iterations of g. Events
// are emitted in iteration order, which is what lets trace.Trace hand
// out an iteration's events as a sub-slice of the log. With an
// Observer the result holds the iteration spans alone, and no active
// time.
func Run(g *graph.Graph, cfg Config) *Result {
	if cfg.Iters <= 0 {
		cfg.Iters = 1
	}
	root := xrand.New(cfg.Seed)
	dev := kernels.NewDevice(cfg.Platform.GPU, root.Split().Uint64())
	ovh := NewSampler(cfg.Platform.Host, root.Split().Uint64(), cfg.Workload)
	plan, streams, eventsPerIter := planNodes(g, dev, ovh)
	profCPU, profGPU := ovh.profilerDists()

	obs := cfg.Observer
	tr := &trace.Trace{Iters: cfg.Iters, IterSpans: make([][2]float64, 0, cfg.Iters)}
	if obs == nil {
		tr.Events = make([]trace.Event, 0, cfg.Iters*eventsPerIter)
	}
	var calls []Call
	host := 0.0
	streamFree := make([]float64, streams)
	// deviceReady[i] is when plan[i]'s outputs exist on device.
	deviceReady := make([]float64, len(plan))

	total := cfg.Warmup + cfg.Iters
	for it := 0; it < total; it++ {
		rec := it >= cfg.Warmup
		iterIdx := it - cfg.Warmup
		iterStart := host

		for ni := range plan {
			n := &plan[ni]
			calls = calls[:0]
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

					if rec && obs != nil {
						calls = append(calls, Call{k.fn, rtStart, rtEnd})
					} else if rec {
						tr.Events = append(tr.Events,
							trace.Event{
								Kind: trace.RuntimeCall, Name: k.fn, Op: n.op,
								Start: rtStart, End: rtEnd, Iter: iterIdx,
								Node: n.id, Seq: i,
							},
							trace.Event{
								Kind: trace.KernelSpan, Name: k.name, Op: n.op,
								Start: start, End: end, Iter: iterIdx,
								Node: n.id, Stream: n.stream, Seq: i,
							})
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

			if rec && obs != nil {
				obs.Op(iterIdx, n.op, opStart, host, calls)
			} else if rec {
				tr.Events = append(tr.Events, trace.Event{
					Kind: trace.OpSpan, Name: n.op, Op: n.op,
					Start: opStart, End: host, Iter: iterIdx, Node: n.id,
				})
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
			tr.IterSpans = append(tr.IterSpans, [2]float64{iterStart, iterEnd})
		}
		host = iterEnd
	}

	res := &Result{Trace: tr, MeanIterTime: tr.MeanIterationTime()}
	if obs == nil {
		res.MeanActiveTime = tr.MeanActiveTime()
	}
	return res
}
