// Package microbench implements the paper's microbenchmark track: for
// each dominating kernel family it sweeps a wide range of shapes on an
// exponential scale, executes each shape on the (simulated) device for a
// number of warmed-up iterations, and collects (kernel, mean time)
// datasets used to fit and evaluate kernel performance models. A dataset
// holds each kernel of its sweep once: its samples point into the
// kernel list it was collected from, and its splits and filters copy
// samples, never kernels.
//
// The paper sweeps up to 30k shapes per kernel over days of GPU time;
// the default sweep here is ~1k shapes (seconds of simulation), with the
// sample count a caller-controlled knob.
package microbench

import (
	"dlrmperf/internal/hw"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/xrand"
)

// Sample is one measured shape.
type Sample struct {
	// Kernel points into the kernel list the dataset was collected from.
	Kernel *kernels.Kernel
	// Time is the mean measured execution time in µs.
	Time float64
}

// Dataset is the benchmark result for one kernel kind on one device.
type Dataset struct {
	Kind    kernels.Kind
	Samples []Sample
}

// BenchIters is the paper's per-shape measurement count (30 iterations
// after warm-up).
const BenchIters = 30

// Split partitions the dataset into train/test by a seeded permutation.
func (d *Dataset) Split(trainFrac float64, seed uint64) (train, test *Dataset) {
	rng := xrand.New(seed)
	perm := rng.Perm(len(d.Samples))
	cut := int(float64(len(d.Samples)) * trainFrac)
	train = &Dataset{Kind: d.Kind, Samples: make([]Sample, 0, cut)}
	test = &Dataset{Kind: d.Kind, Samples: make([]Sample, 0, len(perm)-cut)}
	for i, p := range perm {
		if i < cut {
			train.Samples = append(train.Samples, d.Samples[p])
		} else {
			test.Samples = append(test.Samples, d.Samples[p])
		}
	}
	return train, test
}

// Filter returns the subset of samples for which keep returns true.
func (d *Dataset) Filter(keep func(*kernels.Kernel) bool) *Dataset {
	out := &Dataset{Kind: d.Kind}
	for _, s := range d.Samples {
		if keep(s.Kernel) {
			out.Samples = append(out.Samples, s)
		}
	}
	return out
}

// Collect measures every kernel in ks on dev. The dataset keeps ks, not
// a copy: sample i points at ks[i], so the caller must not change ks
// afterwards.
func Collect(dev *kernels.Device, kind kernels.Kind, ks []kernels.Kernel) *Dataset {
	d := &Dataset{Kind: kind, Samples: make([]Sample, len(ks))}
	for i := range ks {
		d.Samples[i] = Sample{Kernel: &ks[i], Time: dev.RunAveraged(ks[i], BenchIters)}
	}
	return d
}

// CollectKind sweeps n shapes of the given kind on gpu and measures them.
func CollectKind(gpu hw.GPU, kind kernels.Kind, n int, seed uint64) *Dataset {
	rng := xrand.New(seed)
	dev := kernels.NewDevice(gpu, rng.Split().Uint64())
	return Collect(dev, kind, GenerateKernels(kind, n, rng))
}
