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

// t4For returns the runtime-call charge for a kernel of kind k.
func (p *Predictor) t4For(k kernels.Kind) float64 {
	if !p.UseMeasuredT4 {
		return overhead.T4Approx
	}
	if st, ok := p.Overheads.T4[k.RuntimeCall()]; ok && st.N > 0 {
		return st.Mean
	}
	return overhead.T4Approx
}

// Prediction is the result of one E2E prediction: Algorithm 1's three
// totals. The walk keeps no per-op record, so a prediction is a fixed
// size whatever the graph.
type Prediction struct {
	// E2E is Algorithm 1's per-batch training time in µs.
	E2E float64
	// Active is the predicted GPU active time (sum of predicted kernel
	// times) — the "kernel only" baseline when used as an E2E estimate.
	Active float64
	// CPUTime is the accumulated host time of the traversal.
	CPUTime float64
}

// scheduleGranularity is Algorithm 1's "+1" term: the device cannot start
// a queued kernel sooner than 1 µs after the previous one finishes.
const scheduleGranularity = 1.0

// Predict runs Algorithm 1 over the execution graph. The launches come
// from the graph's pooled buffer, so a walk allocates nothing per op or
// per launched kernel, and nothing at all once the pool holds a grown
// buffer.
//
// It walks every device graph of every result-cache miss.
//
//lint:hotpath root
func (p *Predictor) Predict(g *graph.Graph) (Prediction, error) {
	var pr Prediction
	cpu, gpu := 0.0, 0.0
	t1 := p.Overheads.T1Mean()
	for node, ks := range g.Launches() {
		op := g.Op(node).Name()
		t2, t3, t5 := p.Overheads.OpMeans(op)
		cpu += t1
		if len(ks) == 0 {
			cpu += t5
			continue
		}
		cpu += t2
		kernelSum := 0.0
		for i := range ks {
			t4 := p.t4For(ks[i].Kind)
			tk, err := p.Models.Predict(&ks[i])
			if err != nil {
				return Prediction{}, opError(op, err)
			}
			// gpu_time = max(gpu_time + 1, cpu_time + T4/2) + Tk
			start := gpu + scheduleGranularity
			if s := cpu + t4/2; s > start {
				start = s
			}
			gpu = start + tk
			kernelSum += tk
			cpu += t4
			if i < len(ks)-1 {
				cpu += t5
			}
		}
		cpu += t3
		pr.Active += kernelSum
	}
	pr.CPUTime = cpu
	pr.E2E = cpu
	if gpu > pr.E2E {
		pr.E2E = gpu
	}
	return pr, nil
}

// opError wraps the error of a kernel the walk could not price. The walk
// runs on every result-cache miss; the formatting is kept out of it (a
// stop of the hotpath analyzer) and runs only when pricing fails.
//
//lint:hotpath stop wraps the error of a kernel the walk could not price
func opError(op string, err error) error {
	return fmt.Errorf("predict: op %s: %w", op, err)
}
