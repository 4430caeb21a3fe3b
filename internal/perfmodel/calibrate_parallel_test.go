package perfmodel

import (
	"reflect"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/microbench"
	"dlrmperf/internal/mlp"
	"dlrmperf/internal/xrand"
)

// fastCalibOptions keeps the equivalence tests quick: small sweeps, a
// tiny network, two ensemble members (so member-level parallelism is
// exercised).
func fastCalibOptions() CalibOptions {
	sizes := map[kernels.Kind]int{}
	for k, n := range microbench.DefaultSweepSizes() {
		sizes[k] = n / 8
	}
	return CalibOptions{
		SweepSizes: sizes,
		Ensemble:   2,
		MLPConfig:  mlp.Config{HiddenLayers: 1, Width: 16, Optimizer: mlp.Adam, LR: 3e-3, Epochs: 10, BatchSize: 64},
	}
}

// TestCalibrateSerialParallelEquivalence is the contract the concurrent
// calibration engine is built on: the worker-pool path must reproduce
// the serial path bit for bit — same Table IV rows, same registry
// predictions — for the same seed, regardless of scheduling.
func TestCalibrateSerialParallelEquivalence(t *testing.T) {
	p, err := hw.ByName(hw.V100)
	if err != nil {
		t.Fatal(err)
	}
	opt := fastCalibOptions()
	serial := Calibrate(p.GPU, 11, opt, 1)
	parallel := Calibrate(p.GPU, 11, opt, 8)

	if !reflect.DeepEqual(serial.Evals, parallel.Evals) {
		for i := range serial.Evals {
			if i < len(parallel.Evals) && !reflect.DeepEqual(serial.Evals[i], parallel.Evals[i]) {
				t.Errorf("eval row %d differs: serial %+v parallel %+v",
					i, serial.Evals[i], parallel.Evals[i])
			}
		}
		t.Fatalf("KernelEval rows differ (serial %d rows, parallel %d rows)",
			len(serial.Evals), len(parallel.Evals))
	}

	sk, pk := serial.Registry.Kinds(), parallel.Registry.Kinds()
	if !reflect.DeepEqual(sk, pk) {
		t.Fatalf("covered kinds differ: %v vs %v", sk, pk)
	}
	rng := xrand.New(99)
	for _, kind := range sk {
		for _, k := range microbench.GenerateKernels(kind, 8, rng) {
			a, err := serial.Registry.Predict(&k)
			if err != nil {
				t.Fatal(err)
			}
			b, err := parallel.Registry.Predict(&k)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("%s prediction differs: serial %v parallel %v (kernel %+v)", kind, a, b, k)
			}
		}
	}
}

// TestCalibrateParallelWorkerCountInvariance pins the scheduling-freedom
// half of the contract: any pool size gives the same calibration, with
// the fixed configuration and with a (tiny) grid search alike.
func TestCalibrateParallelWorkerCountInvariance(t *testing.T) {
	p, err := hw.ByName(hw.P100)
	if err != nil {
		t.Fatal(err)
	}
	search := fastCalibOptions()
	search.Search = mlp.SearchSpace{
		HiddenLayers: []int{1}, Widths: []int{8, 16}, Optimizers: []string{mlp.Adam},
		LRs: []float64{3e-3}, Epochs: 4, BatchSize: 64,
	}
	for name, opt := range map[string]CalibOptions{"fixed": fastCalibOptions(), "search": search} {
		two := Calibrate(p.GPU, 23, opt, 2)
		many := Calibrate(p.GPU, 23, opt, 16)
		if !reflect.DeepEqual(two.Evals, many.Evals) {
			t.Fatalf("%s: worker count changed the Table IV rows", name)
		}
	}
}
