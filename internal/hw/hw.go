// Package hw describes the hardware platforms the paper evaluates on:
// NVIDIA Tesla V100, GeForce TITAN Xp, and Tesla P100 GPUs, each paired
// with a host CPU profile. The GPU numbers are the public datasheet /
// micro-benchmarked figures the paper's heuristic models consume (peak
// FLOPS, DRAM bandwidth, L2 size and bandwidth, SM count), in the units
// used throughout this repository: microseconds, bytes, and
// operations-or-bytes per microsecond.
package hw

import "fmt"

// GPU describes one GPU device. All bandwidth figures are in bytes per
// microsecond (1 GB/s == 1000 B/µs) and compute in FLOP per microsecond
// (1 GFLOP/s == 1000 FLOP/µs) so that kernel cost math yields
// microseconds directly.
type GPU struct {
	Name string

	// NumSMs is the number of streaming multiprocessors.
	NumSMs int

	// PeakFP32 is the peak single-precision throughput in FLOP/µs.
	PeakFP32 float64

	// DRAMBandwidth is the peak device-memory bandwidth in B/µs.
	DRAMBandwidth float64

	// L2Size is the last-level cache capacity in bytes.
	L2Size int64

	// L2Bandwidth is the L2 cache bandwidth in B/µs.
	L2Bandwidth float64

	// PCIeBandwidth is the host<->device copy bandwidth in B/µs.
	PCIeBandwidth float64

	// KernelLaunchLatency is the device-side latency in µs between a
	// kernel launch reaching the device and the kernel starting when the
	// stream is empty.
	KernelLaunchLatency float64

	// MinKernelTime is the floor duration in µs of any kernel (dispatch,
	// blocks ramp-up, tail effects); even an empty kernel costs this.
	MinKernelTime float64

	// MaxThreadsPerSM bounds resident threads used by occupancy-style
	// corrections in the ground-truth cost models.
	MaxThreadsPerSM int
}

// Host describes the CPU side of a platform. Host speed shapes the
// magnitude of the five overhead types (T1..T5): a slower host launches
// kernels with larger gaps, which is what makes low-utilization models
// CPU-bound (Fig. 4 left case).
type Host struct {
	Name string

	// OverheadScale multiplies every sampled overhead mean. 1.0 is the
	// reference host (the paper's V100 node).
	OverheadScale float64

	// OverheadCV is the default coefficient of variation for overhead
	// distributions on this host.
	OverheadCV float64

	// TailWeight in [0,1) is the probability that an overhead sample is
	// drawn from the long tail (3-8x the mean). The paper observes
	// long-tail overheads (esp. T1 and cudaMemcpyAsync T4) that cause
	// E2E underestimation when means of trimmed samples are used.
	TailWeight float64
}

// Platform pairs a GPU with its host.
type Platform struct {
	GPU  GPU
	Host Host
}

// Platform names used across experiments.
const (
	V100    = "V100"
	TITANXp = "TITAN Xp"
	P100    = "P100"
)

// V100Platform returns the Tesla V100 platform (the paper's primary
// machine): 80 SMs, 15.7 TFLOPS fp32, 900 GB/s HBM2, 6 MB L2.
func V100Platform() Platform {
	return Platform{
		GPU: GPU{
			Name:                V100,
			NumSMs:              80,
			PeakFP32:            15.7e6, // 15.7 TFLOPS = 15.7e6 FLOP/µs
			DRAMBandwidth:       900e3,  // 900 GB/s
			L2Size:              6 << 20,
			L2Bandwidth:         2155e3, // ~2.2 TB/s measured
			PCIeBandwidth:       12.3e3, // ~12.3 GB/s pinned H2D
			KernelLaunchLatency: 3.0,
			MinKernelTime:       1.7,
			MaxThreadsPerSM:     2048,
		},
		Host: Host{
			Name:          "xeon-gold-6138",
			OverheadScale: 1.0,
			OverheadCV:    0.35,
			TailWeight:    0.03,
		},
	}
}

// TITANXpPlatform returns the GeForce TITAN Xp platform: 60 SMs,
// 12.1 TFLOPS fp32, 547 GB/s GDDR5X, 3 MB L2.
func TITANXpPlatform() Platform {
	return Platform{
		GPU: GPU{
			Name:                TITANXp,
			NumSMs:              60,
			PeakFP32:            12.15e6,
			DRAMBandwidth:       547e3,
			L2Size:              3 << 20,
			L2Bandwidth:         1400e3,
			PCIeBandwidth:       11.5e3,
			KernelLaunchLatency: 3.4,
			MinKernelTime:       1.9,
			MaxThreadsPerSM:     2048,
		},
		Host: Host{
			Name:          "i7-8700k",
			OverheadScale: 0.92, // desktop CPU with higher single-core clocks
			OverheadCV:    0.32,
			TailWeight:    0.025,
		},
	}
}

// P100Platform returns the Tesla P100 platform: 56 SMs, 9.5 TFLOPS fp32,
// 732 GB/s HBM2, 4 MB L2.
func P100Platform() Platform {
	return Platform{
		GPU: GPU{
			Name:                P100,
			NumSMs:              56,
			PeakFP32:            9.5e6,
			DRAMBandwidth:       732e3,
			L2Size:              4 << 20,
			L2Bandwidth:         1600e3,
			PCIeBandwidth:       11.8e3,
			KernelLaunchLatency: 3.6,
			MinKernelTime:       2.1,
			MaxThreadsPerSM:     2048,
		},
		Host: Host{
			Name:          "xeon-e5-2698",
			OverheadScale: 1.12, // older server cores, slower dispatch
			OverheadCV:    0.40,
			TailWeight:    0.04,
		},
	}
}

// ByName returns the platform with the given GPU name.
func ByName(name string) (Platform, error) {
	switch name {
	case V100:
		return V100Platform(), nil
	case TITANXp:
		return TITANXpPlatform(), nil
	case P100:
		return P100Platform(), nil
	}
	return Platform{}, fmt.Errorf("hw: unknown platform %q", name)
}

// All returns the three evaluation platforms in the paper's order.
//
//lint:allow unlinked golden reference: the golden and equivalence suites walk every platform
func All() []Platform {
	return []Platform{V100Platform(), TITANXpPlatform(), P100Platform()}
}

// Names returns the GPU names of All() in order.
func Names() []string {
	return []string{V100, TITANXp, P100}
}
