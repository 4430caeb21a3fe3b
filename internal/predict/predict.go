// Package predict implements the paper's end-to-end GPU training
// performance model: Algorithm 1, the critical-path traversal of the
// execution graph that integrates per-kernel time predictions with the
// five host-overhead types to produce the per-batch training time,
// including the device idle time that "sum of kernel times" methods miss.
package predict

import (
	"fmt"

	"dlrmperf/internal/graph"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/overhead"
	"dlrmperf/internal/perfmodel"
	"dlrmperf/internal/tensor"
)

// Predictor bundles the calibrated kernel models and an overhead
// database — the two assets of Fig. 3's prediction track.
type Predictor struct {
	Models    *perfmodel.Registry
	Overheads *overhead.DB
	// UseMeasuredT4 charges the database's measured per-runtime-function
	// means instead of the paper's 10 µs constant (the T4 ablation).
	UseMeasuredT4 bool
}

// New returns a Predictor.
func New(models *perfmodel.Registry, ov *overhead.DB) *Predictor {
	return &Predictor{Models: models, Overheads: ov}
}

// t4For returns the runtime-call charge for a kernel.
func (p *Predictor) t4For(k kernels.Kernel) float64 {
	if !p.UseMeasuredT4 {
		return overhead.T4Approx
	}
	fn := "cudaLaunchKernel"
	switch k.Kind() {
	case kernels.KindMemcpyH2D, kernels.KindMemcpyD2H, kernels.KindMemcpyD2D:
		fn = "cudaMemcpyAsync"
	}
	if st, ok := p.Overheads.T4[fn]; ok && st.N > 0 {
		return st.Mean
	}
	return overhead.T4Approx
}

// OpTime is the per-op prediction detail.
type OpTime struct {
	Op string
	// Kernel is the summed predicted kernel time of the op.
	Kernel float64
	// Host is the op's charged host overhead (T1+T2+T3+T4s+T5s).
	Host float64
}

// Prediction is the result of one E2E prediction.
type Prediction struct {
	// E2E is Algorithm 1's per-batch training time in µs.
	E2E float64
	// Active is the predicted GPU active time (sum of predicted kernel
	// times) — the "kernel only" baseline when used as an E2E estimate.
	Active float64
	// CPUTime is the accumulated host time of the traversal.
	CPUTime float64
	// PerOp holds the per-op breakdown in execution order.
	PerOp []OpTime
}

// scheduleGranularity is Algorithm 1's "+1" term: the device cannot start
// a queued kernel sooner than 1 µs after the previous one finishes.
const scheduleGranularity = 1.0

// Predict runs Algorithm 1 over the execution graph.
func (p *Predictor) Predict(g *graph.Graph) (Prediction, error) {
	pr := Prediction{PerOp: make([]OpTime, 0, len(g.Nodes))}
	cpu, gpu := 0.0, 0.0
	var in []tensor.Meta // one input-metadata buffer for the whole walk
	for _, node := range g.Nodes {
		op := node.Op.Name()
		t1 := p.Overheads.T1Mean()
		t2 := p.Overheads.T2Mean(op)
		t3 := p.Overheads.T3Mean(op)
		t5 := p.Overheads.T5Mean(op)

		cpu += t1
		hostCharged := t1
		kernelSum := 0.0

		in = g.InputMetas(in[:0], node.Inputs)
		ks := node.Op.Kernels(in)
		if len(ks) > 0 {
			cpu += t2
			hostCharged += t2
			for i, k := range ks {
				t4 := p.t4For(k)
				tk, err := p.Models.Predict(k)
				if err != nil {
					return Prediction{}, fmt.Errorf("predict: op %s: %w", op, err)
				}
				// gpu_time = max(gpu_time + 1, cpu_time + T4/2) + Tk
				start := gpu + scheduleGranularity
				if s := cpu + t4/2; s > start {
					start = s
				}
				gpu = start + tk
				kernelSum += tk
				cpu += t4
				hostCharged += t4
				if i < len(ks)-1 {
					cpu += t5
					hostCharged += t5
				}
			}
			cpu += t3
			hostCharged += t3
		} else {
			cpu += t5
			hostCharged += t5
		}
		pr.Active += kernelSum
		pr.PerOp = append(pr.PerOp, OpTime{Op: op, Kernel: kernelSum, Host: hostCharged})
	}
	pr.CPUTime = cpu
	pr.E2E = cpu
	if gpu > pr.E2E {
		pr.E2E = gpu
	}
	return pr, nil
}

// KernelOnly returns the sum of predicted kernel times — the baseline
// that previous CNN-focused work uses as the E2E estimate and that Fig. 9
// shows failing at low GPU utilization.
func (p *Predictor) KernelOnly(g *graph.Graph) (float64, error) {
	total := 0.0
	for _, node := range g.Nodes {
		for _, k := range g.NodeKernels(node) {
			tk, err := p.Models.Predict(k)
			if err != nil {
				return 0, err
			}
			total += tk
		}
	}
	return total, nil
}

// PredictStreams extends Algorithm 1 to multi-stream execution graphs
// (the parallelization what-if of Section V-A): per-stream GPU clocks,
// with cross-stream data dependencies enforced via the producing node's
// device completion time.
func (p *Predictor) PredictStreams(g *graph.Graph) (Prediction, error) {
	var pr Prediction
	cpu := 0.0
	gpuOf := map[int]float64{}
	nodeDone := map[graph.NodeID]float64{}
	for _, node := range g.Nodes {
		op := node.Op.Name()
		t1 := p.Overheads.T1Mean()
		t2 := p.Overheads.T2Mean(op)
		t3 := p.Overheads.T3Mean(op)
		t5 := p.Overheads.T5Mean(op)

		cpu += t1
		hostCharged := t1
		kernelSum := 0.0

		depReady := 0.0
		for _, d := range g.Deps(node) {
			if r := nodeDone[d]; r > depReady {
				depReady = r
			}
		}

		ks := g.NodeKernels(node)
		if len(ks) > 0 {
			cpu += t2
			hostCharged += t2
			gpu := gpuOf[node.Stream]
			last := depReady
			for i, k := range ks {
				t4 := p.t4For(k)
				tk, err := p.Models.Predict(k)
				if err != nil {
					return Prediction{}, fmt.Errorf("predict: op %s: %w", op, err)
				}
				start := gpu + scheduleGranularity
				if s := cpu + t4/2; s > start {
					start = s
				}
				if depReady > start {
					start = depReady
				}
				gpu = start + tk
				kernelSum += tk
				cpu += t4
				hostCharged += t4
				if i < len(ks)-1 {
					cpu += t5
					hostCharged += t5
				}
			}
			gpuOf[node.Stream] = gpu
			if gpu > last {
				last = gpu
			}
			nodeDone[node.ID] = last
			cpu += t3
			hostCharged += t3
		} else {
			cpu += t5
			hostCharged += t5
			nodeDone[node.ID] = depReady
		}
		pr.Active += kernelSum
		pr.PerOp = append(pr.PerOp, OpTime{Op: op, Kernel: kernelSum, Host: hostCharged})
	}
	pr.CPUTime = cpu
	pr.E2E = cpu
	for _, gpu := range gpuOf {
		if gpu > pr.E2E {
			pr.E2E = gpu
		}
	}
	return pr, nil
}

// PredictDecoded runs Algorithm 1 over a decoded (serialized) execution
// graph — the form exchanged between the observer and the predictor in a
// large-scale prediction service.
func (p *Predictor) PredictDecoded(nodes []graph.DecodedNode) (Prediction, error) {
	var pr Prediction
	cpu, gpu := 0.0, 0.0
	for _, node := range nodes {
		op := node.Name
		cpu += p.Overheads.T1Mean()
		if len(node.Kernels) > 0 {
			cpu += p.Overheads.T2Mean(op)
			for i, k := range node.Kernels {
				tk, err := p.Models.Predict(k)
				if err != nil {
					return Prediction{}, err
				}
				start := gpu + scheduleGranularity
				if s := cpu + overhead.T4Approx/2; s > start {
					start = s
				}
				gpu = start + tk
				pr.Active += tk
				cpu += overhead.T4Approx
				if i < len(node.Kernels)-1 {
					cpu += p.Overheads.T5Mean(op)
				}
			}
			cpu += p.Overheads.T3Mean(op)
		} else {
			cpu += p.Overheads.T5Mean(op)
		}
	}
	pr.CPUTime = cpu
	pr.E2E = cpu
	if gpu > pr.E2E {
		pr.E2E = gpu
	}
	return pr, nil
}

// KernelCensus aggregates predicted kernel time by kernel kind — handy
// for bottleneck analysis in the co-design workflows.
func (p *Predictor) KernelCensus(g *graph.Graph) (map[kernels.Kind]float64, error) {
	out := map[kernels.Kind]float64{}
	for _, node := range g.Nodes {
		for _, k := range g.NodeKernels(node) {
			tk, err := p.Models.Predict(k)
			if err != nil {
				return nil, err
			}
			out[k.Kind()] += tk
		}
	}
	return out, nil
}
