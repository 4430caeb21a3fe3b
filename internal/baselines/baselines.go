// Package baselines reimplements, faithfully in spirit, the two
// comparison predictors of Fig. 10:
//
//   - Habitat (Yu et al.): a runtime-based cross-device predictor. It
//     measures each op on a base GPU and scales the measured kernel times
//     to the target GPU by compute/bandwidth ratios (wave scaling), then
//     sums per-op latencies. It cannot predict kernel time for unmeasured
//     configurations and it inherits the base machine's overheads.
//
//   - MLPredict (Justus et al.): a per-op ML predictor trained on a
//     limited shape corpus — batch sizes up to 32 and square convolution
//     filters. It predicts each op's *total* latency (kernel + overhead)
//     and sums. Its documented failure modes, which Fig. 10 exhibits, are
//     extrapolation to uncovered batch sizes and asymmetric (1x7/7x1)
//     convolutions.
//
// Fig. 10 compares the baselines' predictions run against run, so
// their float sums must not take a map's order: the package is held to
// the deterministic analyzer.
//
//lint:deterministic
package baselines

import (
	"math"

	"dlrmperf/internal/graph"
	"dlrmperf/internal/hw"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/mlp"
	"dlrmperf/internal/sim"
	"dlrmperf/internal/xrand"
)

// Habitat predicts a workload's per-batch time on a target GPU from a
// measured run on a base GPU.
type Habitat struct {
	Base   hw.Platform
	Target hw.Platform
	// Seed drives the base-device measurement run.
	Seed uint64
}

// scale returns the wave-scaling factor applied to a kernel measured on
// base when moving to target: compute-bound kernels scale with peak
// FLOPS, memory-bound ones with memory bandwidth, blended by arithmetic
// intensity.
func (h *Habitat) scale(k kernels.Kernel) float64 {
	read, write := k.Bytes()
	bytes := read + write
	flops := k.FLOPs()
	if k.Kind == kernels.KindMemcpyH2D {
		return h.Base.GPU.PCIeBandwidth / h.Target.GPU.PCIeBandwidth
	}
	bwRatio := h.Base.GPU.DRAMBandwidth / h.Target.GPU.DRAMBandwidth
	fpRatio := h.Base.GPU.PeakFP32 / h.Target.GPU.PeakFP32
	if bytes <= 0 {
		return fpRatio
	}
	// Arithmetic intensity relative to the base device's balance point.
	ai := flops / bytes
	balance := h.Base.GPU.PeakFP32 / h.Base.GPU.DRAMBandwidth
	w := ai / (ai + balance) // 0 = memory bound, 1 = compute bound
	return (1-w)*bwRatio + w*fpRatio
}

// Predict measures g on the base platform and returns the scaled per-batch
// prediction for the target platform: the sum over ops of
// max(host latency, scaled device time), Habitat's op-serial composition.
func (h *Habitat) Predict(g *graph.Graph, workload string) float64 {
	run := &habitatRun{h: h, accs: make([]hostDevice, len(g.Nodes)), at: make(map[int]int, len(g.Nodes))}
	for i, n := range g.Nodes {
		run.at[int(n.ID)] = i
	}
	const iters = 10
	sim.Run(g, sim.Config{
		Platform: h.Base, Seed: h.Seed, Warmup: 3, Iters: iters, Workload: workload, Observer: run,
	})
	total := 0.0
	for _, a := range run.accs {
		host := a.host / iters
		dev := a.dev / iters
		if dev > host {
			total += dev
		} else {
			total += host
		}
	}
	return total
}

// habitatRun is the Observer of Habitat's base-device run: per node, in
// g.Nodes order so that the total sums reproducibly bit for bit, the
// host span and the scaled kernel time summed over the iterations.
type habitatRun struct {
	h    *Habitat
	accs []hostDevice
	at   map[int]int // node ID -> position
}

type hostDevice struct{ host, dev float64 }

func (r *habitatRun) Op(o *sim.Op) {
	a := &r.accs[r.at[o.Node]]
	a.host += o.End - o.Start
	for _, c := range o.Calls {
		a.dev += (c.KernelEnd - c.KernelStart) * r.h.scale(*c.Kernel)
	}
}

// MLPredict is the per-op ML predictor with limited shape coverage.
// Predictions are clamped to the training corpus's latency range (plus
// one e-fold of headroom): the published predictor regresses bounded
// normalized targets, so it saturates rather than diverges when asked to
// extrapolate far outside its corpus.
type MLPredict struct {
	net    *mlp.Net
	gpu    hw.GPU
	host   hw.Host
	minLog float64
	maxLog float64
}

// mlpredictCoveredBatches is the training corpus batch-size coverage.
var mlpredictCoveredBatches = []int64{4, 8, 16, 32}

// mlpredictFeatures maps a kernel to MLPredict's op-level feature vector
// (batch, channels, spatial size, filter extents, stride). The training
// corpus contains only square filters, so the R and S features are
// perfectly correlated during training; on Inception-V3's 1x7/7x1 inputs
// the regressor is off its manifold and misprices those stacks — the
// failure mode the paper attributes to MLPredict's limited shape
// coverage.
func mlpredictFeatures(k kernels.Kernel) []float64 {
	switch k.Kind {
	case kernels.KindConv:
		return []float64{lg(k.N), lg(k.C), lg(k.H), lg(k.K),
			float64(k.R), float64(k.S), float64(k.Stride)}
	case kernels.KindGEMM:
		return []float64{lg(k.B * k.M), lg(k.N), lg(k.K), 0, -1, -1, 0}
	default:
		read, write := k.Bytes()
		return []float64{lgf(read + write), 0, 0, 0, -2, -2, 1}
	}
}

func lgf(x float64) float64 {
	if x <= 1 {
		return 0
	}
	return math.Log2(x)
}

func lg(x int64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Log2(float64(x))
}

// TrainMLPredict builds the baseline by benchmarking ops (kernel time
// plus a fixed launch overhead, since the published model predicts
// whole-op latencies) on the covered corpus.
func TrainMLPredict(p hw.Platform, seed uint64) *MLPredict {
	rng := xrand.New(seed)
	dev := kernels.NewDevice(p.GPU, rng.Split().Uint64())

	var X [][]float64
	var Y []float64
	add := func(k kernels.Kernel) {
		if k.FLOPs() > 2e12 {
			return // real layer corpora contain no half-second kernels
		}
		t := dev.RunAveraged(&k, 5) + 12*p.Host.OverheadScale // op latency incl. overhead
		X = append(X, mlpredictFeatures(k))
		Y = append(Y, logf(t))
	}
	// Square-filter convolutions of real-network layers over the covered
	// batch sizes (stem-scale spatial sizes and 7x7 filters included;
	// asymmetric filters are not).
	for _, n := range mlpredictCoveredBatches {
		for _, c := range []int64{3, 16, 64, 128, 256, 512, 1024} {
			for _, hwDim := range []int64{7, 14, 28, 56, 112, 224} {
				for _, f := range []int64{1, 3, 5, 7} {
					for _, k := range []int64{32, 128, 512, 2048} {
						for _, stride := range []int64{1, 2} {
							add(kernels.Kernel{Kind: kernels.KindConv, N: n, C: c, H: hwDim, W: hwDim, K: k,
								R: f, S: f, Stride: stride, PadH: f / 2, PadW: f / 2})
						}
					}
				}
			}
		}
	}
	// Dense layers.
	for _, n := range mlpredictCoveredBatches {
		for _, in := range []int64{256, 1024, 4096} {
			for _, out := range []int64{256, 1024, 4096} {
				add(kernels.Kernel{Kind: kernels.KindGEMM, B: 1, M: n, N: out, K: in})
			}
		}
	}
	net := mlp.Train(X, Y, mlp.Config{
		HiddenLayers: 2, Width: 48, Optimizer: mlp.Adam, LR: 2e-3, Epochs: 40, BatchSize: 64,
	}, rng.Uint64())
	minLog, maxLog := Y[0], Y[0]
	for _, y := range Y {
		if y < minLog {
			minLog = y
		}
		if y > maxLog {
			maxLog = y
		}
	}
	return &MLPredict{net: net, gpu: p.GPU, host: p.Host, minLog: minLog - 1, maxLog: maxLog + 1}
}

func logf(t float64) float64 {
	if t <= 0 {
		t = 1e-6
	}
	return math.Log(t)
}

// Predict sums per-op latency predictions over the graph. Like the
// published tool, only the layer types in the corpus (convolutions and
// dense layers) are predicted by the network; every other op contributes
// a token fixed launch latency — batch-norm, pooling, and activation
// device time is simply missed, and asymmetric convolutions are priced
// as their square counterparts.
func (m *MLPredict) Predict(g *graph.Graph) float64 {
	total := 0.0
	for _, ks := range g.Launches() {
		for _, k := range ks {
			total += m.PredictKernel(k)
		}
	}
	return total
}

// PredictKernel exposes the per-kernel prediction for debugging and
// tests.
func (m *MLPredict) PredictKernel(k kernels.Kernel) float64 {
	switch k.Kind {
	case kernels.KindConv, kernels.KindGEMM:
		y := m.net.Predict(mlpredictFeatures(k))
		if y < m.minLog {
			y = m.minLog
		}
		if y > m.maxLog {
			y = m.maxLog
		}
		return math.Exp(y)
	}
	return 12 * m.host.OverheadScale
}
