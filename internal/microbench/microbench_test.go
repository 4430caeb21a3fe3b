package microbench

import (
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/xrand"
)

func TestGenerateKernelsKindAndCount(t *testing.T) {
	rng := xrand.New(1)
	for _, kind := range []kernels.Kind{
		kernels.KindGEMM, kernels.KindEmbeddingFwd, kernels.KindEmbeddingBwd,
		kernels.KindConcat, kernels.KindMemcpyH2D, kernels.KindTranspose,
		kernels.KindTrilFwd, kernels.KindTrilBwd, kernels.KindElementwise,
		kernels.KindConv, kernels.KindBatchNorm,
	} {
		ks := GenerateKernels(kind, 50, rng)
		if len(ks) != 50 {
			t.Fatalf("%s: %d kernels", kind, len(ks))
		}
		for _, k := range ks {
			if k.Kind != kind {
				t.Fatalf("%s sweep produced %s kernel", kind, k.Kind)
			}
		}
	}
}

func TestSweepCoversSmallAndLargeTables(t *testing.T) {
	rng := xrand.New(2)
	ks := GenerateKernels(kernels.KindEmbeddingFwd, 400, rng)
	small, large := 0, 0
	for _, e := range ks {
		if e.Kind != kernels.KindEmbeddingFwd {
			t.Fatalf("embedding sweep produced %s kernel", e.Kind)
		}
		if e.E < 10_000 {
			small++
		}
		if e.E > 1_000_000 {
			large++
		}
	}
	if small < 20 || large < 20 {
		t.Errorf("table size coverage thin: %d small, %d large", small, large)
	}
}

func TestSweepCoversAsymmetricConvs(t *testing.T) {
	rng := xrand.New(3)
	ks := GenerateKernels(kernels.KindConv, 400, rng)
	asym := 0
	for _, c := range ks {
		if c.Kind != kernels.KindConv {
			t.Fatalf("conv sweep produced %s kernel", c.Kind)
		}
		if c.R != c.S {
			asym++
		}
	}
	if asym < 50 {
		t.Errorf("asymmetric conv coverage = %d/400", asym)
	}
}

func TestCollectKindMeasures(t *testing.T) {
	ds := CollectKind(hw.V100Platform().GPU, kernels.KindTrilFwd, 40, 7)
	if len(ds.Samples) != 40 {
		t.Fatalf("samples = %d", len(ds.Samples))
	}
	if ds.Kind != kernels.KindTrilFwd {
		t.Errorf("dataset kind wrong: %s", ds.Kind)
	}
	for _, s := range ds.Samples {
		if s.Time <= 0 {
			t.Fatalf("non-positive measured time for %s", s.Kernel)
		}
	}
	// Collect keeps the caller's kernels: sample i points at ks[i].
	ks := GenerateKernels(kernels.KindTrilFwd, 40, xrand.New(7))
	ds = Collect(kernels.NewDevice(hw.V100Platform().GPU, 7), kernels.KindTrilFwd, ks)
	for i, s := range ds.Samples {
		if s.Kernel != &ks[i] {
			t.Fatalf("sample %d holds %p, not &ks[%d] = %p", i, s.Kernel, i, &ks[i])
		}
	}
}

// kernelsOf returns the set of kernels ds's samples point at.
func kernelsOf(ds *Dataset) map[*kernels.Kernel]int {
	set := map[*kernels.Kernel]int{}
	for _, s := range ds.Samples {
		set[s.Kernel]++
	}
	return set
}

func TestSplitPartitions(t *testing.T) {
	ds := CollectKind(hw.V100Platform().GPU, kernels.KindConcat, 100, 9)
	train, test := ds.Split(0.8, 3)
	if len(train.Samples) != 80 || len(test.Samples) != 20 {
		t.Fatalf("split sizes: %d/%d", len(train.Samples), len(test.Samples))
	}
	// Every sample of the split points into the parent's kernels, and
	// each parent kernel lands in exactly one half.
	parent, halves := kernelsOf(ds), kernelsOf(train)
	for k, n := range kernelsOf(test) {
		halves[k] += n
	}
	if len(halves) != len(parent) {
		t.Fatalf("split holds %d distinct kernels, parent %d", len(halves), len(parent))
	}
	for k, n := range halves {
		if n != 1 || parent[k] != 1 {
			t.Fatalf("kernel %s held %d times by the split, %d by the parent", k, n, parent[k])
		}
	}
	// Same seed -> same split.
	train2, _ := ds.Split(0.8, 3)
	for i := range train.Samples {
		if train.Samples[i].Kernel.String() != train2.Samples[i].Kernel.String() {
			t.Fatal("split not deterministic")
		}
	}
}

func TestFilter(t *testing.T) {
	ds := CollectKind(hw.V100Platform().GPU, kernels.KindEmbeddingFwd, 100, 11)
	big := ds.Filter(func(k *kernels.Kernel) bool {
		return k.Kind == kernels.KindEmbeddingFwd && k.E > 100_000
	})
	if len(big.Samples) == 0 || len(big.Samples) == len(ds.Samples) {
		t.Errorf("filter kept %d of %d", len(big.Samples), len(ds.Samples))
	}
	parent := kernelsOf(ds)
	for _, s := range big.Samples {
		if parent[s.Kernel] == 0 {
			t.Fatalf("filtered sample %s does not point into the parent's kernels", s.Kernel)
		}
	}
}

func TestDefaultSweepSizesCoverDominatingKinds(t *testing.T) {
	sizes := DefaultSweepSizes()
	for _, kind := range []kernels.Kind{
		kernels.KindGEMM, kernels.KindEmbeddingFwd, kernels.KindEmbeddingBwd,
		kernels.KindConcat, kernels.KindMemcpyH2D, kernels.KindTranspose,
		kernels.KindTrilFwd, kernels.KindTrilBwd,
	} {
		if sizes[kind] < 100 {
			t.Errorf("%s sweep size = %d", kind, sizes[kind])
		}
	}
}
