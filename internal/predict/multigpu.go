package predict

import (
	"errors"
	"fmt"
	"strings"

	"dlrmperf/internal/graph"
)

// This file implements the paper's stated future work (§VI): extending
// the performance model to (distributed) multi-GPU training. DLRM's
// standard hybrid-parallel recipe is data parallelism for the dense MLPs
// (gradients all-reduced every step) with the embedding tables
// model-parallel across devices (activations exchanged by all-to-all).
// The extension composes the single-GPU Algorithm 1 prediction with an
// alpha-beta collective model.

// CommModel prices communication collectives with the classic
// alpha-beta model: latency alpha (µs) plus bytes over bus bandwidth
// (B/µs), with the collective's algorithmic factor applied.
type CommModel struct {
	// Alpha is the per-collective latency in µs.
	Alpha float64
	// BusBW is the per-link bus bandwidth in B/µs.
	BusBW float64
}

// NVLinkCommModel returns an NVLink-class interconnect (~22 GB/s
// effective bus bandwidth per direction, ~10 µs launch latency).
func NVLinkCommModel() CommModel {
	return CommModel{Alpha: 10, BusBW: 22e3}
}

// PCIeCommModel returns a PCIe-class interconnect.
func PCIeCommModel() CommModel {
	return CommModel{Alpha: 15, BusBW: 10e3}
}

// CommByName maps an interconnect name ("nvlink", "pcie"; "" defaults
// to nvlink) to its alpha-beta model — the wire-format hook for
// scenario specs.
func CommByName(name string) (CommModel, error) {
	switch strings.ToLower(name) {
	case "", "nvlink":
		return NVLinkCommModel(), nil
	case "pcie":
		return PCIeCommModel(), nil
	}
	return CommModel{}, fmt.Errorf("predict: unknown comm model %q", name)
}

// AllReduce returns the time for a ring all-reduce of nBytes across n
// devices: 2*(n-1)/n of the data crosses each link, over 2*(n-1) ring
// steps (reduce-scatter then all-gather), each paying the launch
// latency alpha once.
func (c CommModel) AllReduce(nBytes int64, n int) float64 {
	if n <= 1 {
		return 0
	}
	steps := 2 * float64(n-1)
	factor := 2 * float64(n-1) / float64(n)
	return steps*c.Alpha + factor*float64(nBytes)/c.BusBW
}

// AllToAll returns the time for an all-to-all exchange of nBytes total
// payload per device across n devices: (n-1)/n of the payload leaves
// each device, over n-1 pairwise exchange steps, each paying alpha.
func (c CommModel) AllToAll(nBytes int64, n int) float64 {
	if n <= 1 {
		return 0
	}
	steps := float64(n - 1)
	factor := float64(n-1) / float64(n)
	return steps*c.Alpha + factor*float64(nBytes)/c.BusBW
}

// MultiGPUPrediction extends Prediction with the communication breakdown.
type MultiGPUPrediction struct {
	Prediction
	// Devices is the device count.
	Devices int
	// AllReduceUs is the dense-gradient all-reduce time per step.
	AllReduceUs float64
	// AllToAllUs is the embedding-activation exchange time per step
	// (forward + backward).
	AllToAllUs float64
	// ScalingEfficiency is singleGPU*N / (N * multiGPU) — the fraction of
	// linear weak-scaling throughput retained.
	ScalingEfficiency float64
	// PerDeviceE2E lists each device's compute-only E2E time (before
	// collectives).
	PerDeviceE2E []float64 `json:",omitempty"`
}

// collectives prices one training step's communication. A zero payload
// means the collective is never launched (a pure data-parallel CNN has
// no embedding all-to-all), so it costs nothing — not even alpha.
func collectives(denseParams, embActBytes int64, n int, comm CommModel) (allReduce, allToAll float64) {
	if denseParams > 0 {
		allReduce = comm.AllReduce(denseParams*4, n)
	}
	if embActBytes > 0 {
		// All-to-all twice: activations forward, gradients backward.
		allToAll = 2 * comm.AllToAll(embActBytes, n)
	}
	return allReduce, allToAll
}

// PredictSharded prices hybrid-parallel training where device d runs
// its own per-device execution graph graphs[d] — each built at the
// per-device batch size with that device's embedding-table shard (the
// sharding planner's output). The step time is the slowest device's
// compute (the makespan the planner minimizes) plus the dense
// all-reduce and the two embedding all-to-alls; the embedded Prediction
// carries the bottleneck device's breakdown with E2E lifted to the
// full-step time. ScalingEfficiency is makespan/step: the fraction of
// the step not lost to collectives. One graph is one device: no
// collective runs (AllReduce and AllToAll are 0 at n = 1), so the
// Prediction is Predict's and the efficiency 1. Plain data parallelism
// is n copies of one graph.
//
// It prices every result-cache miss, one device or sharded.
//
//lint:hotpath root
func (p *Predictor) PredictSharded(graphs []*graph.Graph, denseParams, embActBytes int64, comm CommModel) (MultiGPUPrediction, error) {
	n := len(graphs)
	if n < 1 {
		return MultiGPUPrediction{}, errors.New("predict: sharded prediction needs at least one device graph")
	}
	out := MultiGPUPrediction{Devices: n, PerDeviceE2E: make([]float64, n)}
	var pred Prediction
	for d, g := range graphs {
		// Devices holding identical shards share one graph; the walk is
		// deterministic, so the previous device's answer is this one's.
		if d == 0 || g != graphs[d-1] {
			var err error
			if pred, err = p.Predict(g); err != nil {
				return MultiGPUPrediction{}, deviceError(d, err)
			}
		}
		out.PerDeviceE2E[d] = pred.E2E
		if d == 0 || pred.E2E > out.Prediction.E2E {
			out.Prediction = pred
		}
	}
	makespan := out.Prediction.E2E
	out.AllReduceUs, out.AllToAllUs = collectives(denseParams, embActBytes, n, comm)
	out.E2E = makespan + out.AllReduceUs + out.AllToAllUs
	out.ScalingEfficiency = makespan / out.E2E
	return out, nil
}

// deviceError wraps the error of device d's walk, a stop of the hotpath
// analyzer like opError.
//
//lint:hotpath stop wraps the error of a device walk that failed
func deviceError(d int, err error) error {
	return fmt.Errorf("device %d: %w", d, err)
}
