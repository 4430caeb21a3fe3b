package kernels

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"dlrmperf/internal/hw"
)

func TestGEMMAccounting(t *testing.T) {
	g := Kernel{Kind: KindGEMM, B: 1, M: 128, N: 64, K: 32}
	if got := g.FLOPs(); got != 2*128*64*32 {
		t.Errorf("FLOPs = %v", got)
	}
	r, w := g.Bytes()
	if r != 4*(128*32+32*64) || w != 4*128*64 {
		t.Errorf("Bytes = %v, %v", r, w)
	}
	if len(AppendFeatures(nil, &g)) != 4 {
		t.Errorf("Features len = %d", len(AppendFeatures(nil, &g)))
	}
}

func TestEmbeddingKindAndFLOPs(t *testing.T) {
	e := Kernel{Kind: KindEmbeddingFwd, B: 128, E: 1000, T: 4, L: 8, D: 64}
	if e.Kind != KindEmbeddingFwd {
		t.Error("forward kind wrong")
	}
	b := e
	b.Kind = KindEmbeddingBwd
	if b.Kind != KindEmbeddingBwd {
		t.Error("backward kind wrong")
	}
	if b.FLOPs() != 2*e.FLOPs() {
		t.Error("backward FLOPs should be 2x forward")
	}
}

// TestKernelSize pins the Kernel doc's word count, which the hot path's
// take-a-pointer rule and the walk's pooled kernel buffer are sized by.
func TestKernelSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the word count is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Kernel{}); got != 27*8 {
		t.Errorf("Kernel is %d bytes, want 27 words (216)", got)
	}
}

func TestTrilOutElems(t *testing.T) {
	tr := Kernel{Kind: KindTrilFwd, B: 2, F: 9}
	if tr.OutElems() != 36 {
		t.Errorf("OutElems = %d, want 36", tr.OutElems())
	}
	fr, fw := tr.Bytes()
	bwd := Kernel{Kind: KindTrilBwd, B: 2, F: 9}
	br, bw := bwd.Bytes()
	// Backward mirrors forward: reads what forward wrote, writes what it read.
	if fr != bw || fw != br {
		t.Errorf("tril fwd/bwd traffic not mirrored: fwd=(%v,%v) bwd=(%v,%v)", fr, fw, br, bw)
	}
}

func TestConvOutHWAndGEMM(t *testing.T) {
	c := Kernel{Kind: KindConv, N: 32, C: 64, H: 56, W: 56, K: 128, R: 3, S: 3, Stride: 1, PadH: 1, PadW: 1}
	p, q := c.OutHW()
	if p != 56 || q != 56 {
		t.Errorf("OutHW = %d,%d want 56,56", p, q)
	}
	g := c.AsGEMM()
	if g.M != 32*56*56 || g.N != 128 || g.K != 64*9 {
		t.Errorf("AsGEMM = %+v", g)
	}
	c2 := Kernel{Kind: KindConv, N: 1, C: 3, H: 224, W: 224, K: 64, R: 7, S: 7, Stride: 2, PadH: 3, PadW: 3}
	p, q = c2.OutHW()
	if p != 112 || q != 112 {
		t.Errorf("stride-2 OutHW = %d,%d want 112,112", p, q)
	}
}

// TestFeatureWidthMatchesAppendFeatures pins the width table to the
// feature builder: a kernel of every type, in every kind it can take,
// appends exactly FeatureWidth of its kind, and every kind is covered.
func TestFeatureWidthMatchesAppendFeatures(t *testing.T) {
	covered := map[Kind]bool{}
	for _, k := range []Kernel{
		{Kind: KindGEMM, B: 1, M: 128, N: 64, K: 32},
		{Kind: KindEmbeddingFwd, B: 128, E: 1000, T: 4, L: 8, D: 64},
		{Kind: KindEmbeddingBwd, B: 128, E: 1000, T: 4, L: 8, D: 64},
		{Kind: KindConcat, NBytes: 4096, NInputs: 3},
		{Kind: KindMemcpyH2D, NBytes: 1 << 20},
		{Kind: KindTranspose, B: 8, M: 64, N: 32},
		{Kind: KindTrilFwd, B: 128, F: 27},
		{Kind: KindTrilBwd, B: 128, F: 27},
		{Kind: KindElementwise, NElems: 1 << 16, ReadsPerElem: 2, WritesPerElem: 1},
		{Kind: KindConv, N: 32, C: 64, H: 56, W: 56, K: 64, R: 3, S: 3, Stride: 1},
		{Kind: KindBatchNorm, N: 32, C: 64, H: 56, W: 56},
	} {
		if got, want := len(AppendFeatures(nil, &k)), FeatureWidth(k.Kind); got != want {
			t.Errorf("%s (%s): AppendFeatures has %d features, FeatureWidth says %d", k, k.Kind, got, want)
		}
		covered[k.Kind] = true
	}
	for _, k := range Kinds() {
		if !covered[k] {
			t.Errorf("kind %s has no kernel in the table", k)
		}
	}
}

func TestKindStringsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range Kinds() {
		s := k.String()
		if seen[s] {
			t.Errorf("duplicate kind string %q", s)
		}
		seen[s] = true
	}
}

// TestKindNames pins every kind's rendered name: the calibration asset
// format keys its models by them.
func TestKindNames(t *testing.T) {
	want := []string{"GEMM", "EL-F", "EL-B", "concat", "memcpy",
		"transpose", "tril-F", "tril-B", "elementwise", "conv", "batchnorm"}
	if len(Kinds()) != len(want) {
		t.Fatalf("%d kinds, %d names pinned", len(Kinds()), len(want))
	}
	for i, k := range Kinds() {
		if got := k.String(); got != want[i] {
			t.Errorf("Kind(%d).String() = %q, want %q", i, got, want[i])
		}
	}
	for _, k := range []Kind{-1, numKinds} {
		if got, want := k.String(), fmt.Sprintf("kind(%d)", int(k)); got != want {
			t.Errorf("out-of-range kind renders %q, want %q", got, want)
		}
	}
}

// TestRuntimeCallNames pins which runtime function launches each kind:
// the overhead database keys its T4 table by these names, and the
// simulator and the predictor both read this mapping.
func TestRuntimeCallNames(t *testing.T) {
	for _, k := range Kinds() {
		want := "cudaLaunchKernel"
		if k == KindMemcpyH2D {
			want = "cudaMemcpyAsync"
		}
		if got := k.RuntimeCall(); got != want {
			t.Errorf("%v.RuntimeCall() = %q, want %q", k, got, want)
		}
	}
}

func newV100() *Device { return NewDevice(hw.V100Platform().GPU, 1) }

func TestGEMMTimeScalesWithWork(t *testing.T) {
	d := newV100()
	small := d.BaseTime(&Kernel{Kind: KindGEMM, B: 1, M: 256, N: 256, K: 256})
	big := d.BaseTime(&Kernel{Kind: KindGEMM, B: 1, M: 2048, N: 2048, K: 2048})
	if big <= small {
		t.Fatalf("bigger GEMM not slower: %v <= %v", big, small)
	}
	// 512x more FLOPs should be at least 50x slower (quantization and
	// floors compress the ratio but not that much).
	if big/small < 50 {
		t.Errorf("GEMM scaling ratio %v suspiciously flat", big/small)
	}
}

func TestGEMM1024RealisticRange(t *testing.T) {
	d := newV100()
	got := d.BaseTime(&Kernel{Kind: KindGEMM, B: 1, M: 1024, N: 1024, K: 1024})
	// cuBLAS fp32 1024^3 on V100 lands in the 150-350 µs range.
	if got < 100 || got > 500 {
		t.Errorf("1024^3 GEMM time = %v µs, outside plausible range", got)
	}
}

func TestGEMMWaveQuantization(t *testing.T) {
	d := newV100()
	// 80 SMs: with the 64-wide tile an 80-CTA grid (M=640, N=512) fits
	// one wave, while 88 CTAs (M=704) spill into a second round, so the
	// per-FLOP cost must jump even though the work barely grows. (The
	// dispatcher partially absorbs the cliff by switching tiles, so the
	// visible jump is smaller than the raw 2x round count.)
	a := Kernel{Kind: KindGEMM, B: 1, M: 640, N: 512, K: 2048}
	b := Kernel{Kind: KindGEMM, B: 1, M: 704, N: 512, K: 2048}
	ta := d.BaseTime(&a) / a.FLOPs()
	tb := d.BaseTime(&b) / b.FLOPs()
	if tb < ta*1.25 {
		t.Errorf("no wave quantization visible: %v vs %v µs/FLOP", tb, ta)
	}
}

func TestEmbeddingSmallTableFasterPerRow(t *testing.T) {
	d := newV100()
	small := Kernel{Kind: KindEmbeddingFwd, B: 1024, E: 1000, T: 8, L: 16, D: 64}
	large := Kernel{Kind: KindEmbeddingFwd, B: 1024, E: 10_000_000, T: 8, L: 16, D: 64}
	ts := d.BaseTime(&small)
	tl := d.BaseTime(&large)
	// The small table lives in L2, so it must be faster despite moving
	// the same logical traffic.
	if ts >= tl {
		t.Errorf("L2-resident lookup not faster: small=%v large=%v", ts, tl)
	}
}

func TestEmbeddingBackwardSlower(t *testing.T) {
	d := newV100()
	f := Kernel{Kind: KindEmbeddingFwd, B: 2048, E: 1_000_000, T: 8, L: 10, D: 64}
	b := f
	b.Kind = KindEmbeddingBwd
	if d.BaseTime(&b) <= d.BaseTime(&f) {
		t.Error("backward lookup should be slower than forward")
	}
}

func TestMemcpyLatencyFloor(t *testing.T) {
	d := newV100()
	tiny := d.BaseTime(&Kernel{Kind: KindMemcpyH2D, NBytes: 64})
	if tiny < 5 {
		t.Errorf("tiny memcpy %v µs is below the driver latency floor", tiny)
	}
	big := d.BaseTime(&Kernel{Kind: KindMemcpyH2D, NBytes: 64 << 20})
	// 64 MB over ~12 GB/s PCIe is ~5.4 ms.
	if big < 4000 || big > 9000 {
		t.Errorf("64MB H2D = %v µs, implausible", big)
	}
}

func TestTransposeAlignmentPenalty(t *testing.T) {
	d := newV100()
	aligned := d.BaseTime(&Kernel{Kind: KindTranspose, B: 64, M: 512, N: 512})
	misaligned := d.BaseTime(&Kernel{Kind: KindTranspose, B: 64, M: 512, N: 513})
	perByteA := aligned / (4 * 64 * 512 * 512)
	perByteM := misaligned / (4 * 64 * 512 * 513)
	if perByteM <= perByteA {
		t.Error("misaligned transpose should cost more per byte")
	}
}

func TestTrilBackwardSlower(t *testing.T) {
	d := newV100()
	f := d.BaseTime(&Kernel{Kind: KindTrilFwd, B: 4096, F: 27})
	b := d.BaseTime(&Kernel{Kind: KindTrilBwd, B: 4096, F: 27})
	if b <= f {
		t.Errorf("tril backward (%v) should exceed forward (%v)", b, f)
	}
}

func TestQuirkStability(t *testing.T) {
	d1 := NewDevice(hw.V100Platform().GPU, 1)
	d2 := NewDevice(hw.V100Platform().GPU, 999)
	k := Kernel{Kind: KindGEMM, B: 1, M: 777, N: 333, K: 555}
	// BaseTime must not depend on the RNG seed — quirks are properties of
	// the (shape, device) pair, not of the run.
	if d1.BaseTime(&k) != d2.BaseTime(&k) {
		t.Error("BaseTime depends on seed; quirk must be deterministic")
	}
}

func TestQuirkVariesAcrossDevices(t *testing.T) {
	v := NewDevice(hw.V100Platform().GPU, 1)
	p := NewDevice(hw.P100Platform().GPU, 1)
	k := Kernel{Kind: KindTranspose, B: 8, M: 100, N: 100}
	rv := v.BaseTime(&k) / p.BaseTime(&k)
	// Devices differ in both specs and quirks; just assert they differ.
	if rv == 1 {
		t.Error("different devices produced identical kernel time")
	}
}

func TestRunNoiseAveragesOut(t *testing.T) {
	d := newV100()
	k := Kernel{Kind: KindGEMM, B: 1, M: 512, N: 512, K: 512}
	base := d.BaseTime(&k)
	avg := d.RunAveraged(&k, 200)
	if math.Abs(avg-base)/base > 0.02 {
		t.Errorf("200-run average %v deviates from base %v", avg, base)
	}
}

func TestRunIsNoisy(t *testing.T) {
	d := newV100()
	k := Kernel{Kind: KindGEMM, B: 1, M: 512, N: 512, K: 512}
	a, b := d.Noisy(d.BaseTime(&k)), d.Noisy(d.BaseTime(&k))
	if a == b {
		t.Error("two runs returned identical noisy times")
	}
}

func TestAllKernelTimesPositive(t *testing.T) {
	for _, p := range hw.All() {
		d := NewDevice(p.GPU, 7)
		ks := []Kernel{
			{Kind: KindGEMM, B: 1, M: 1, N: 1, K: 1},
			{Kind: KindGEMM, B: 64, M: 2048, N: 1024, K: 512},
			{Kind: KindEmbeddingFwd, B: 1, E: 1, T: 1, L: 1, D: 1},
			{Kind: KindEmbeddingFwd, B: 4096, E: 14_000_000, T: 26, L: 1, D: 128},
			{Kind: KindEmbeddingBwd, B: 512, E: 80000, T: 8, L: 100, D: 128},
			{Kind: KindConcat, NBytes: 1, NInputs: 1},
			{Kind: KindConcat, NBytes: 1 << 26, NInputs: 27},
			{Kind: KindMemcpyH2D, NBytes: 1},
			{Kind: KindTranspose, B: 1, M: 1, N: 1},
			{Kind: KindTrilFwd, B: 1, F: 2},
			{Kind: KindTrilBwd, B: 8192, F: 27},
			{Kind: KindElementwise, Name: "relu", NElems: 1 << 22, ReadsPerElem: 4, WritesPerElem: 4},
			{Kind: KindConv, N: 16, C: 3, H: 224, W: 224, K: 64, R: 7, S: 7, Stride: 2, PadH: 3, PadW: 3},
			{Kind: KindBatchNorm, N: 16, C: 64, H: 112, W: 112},
		}
		for _, k := range ks {
			got := d.BaseTime(&k)
			if got <= 0 || math.IsNaN(got) || math.IsInf(got, 0) {
				t.Errorf("%s: BaseTime(%s) = %v", p.GPU.Name, k, got)
			}
			if got < p.GPU.MinKernelTime*0.5 {
				t.Errorf("%s: %s faster than kernel floor: %v", p.GPU.Name, k, got)
			}
		}
	}
}

func TestMostlyMonotoneInBatch(t *testing.T) {
	// Real GPU kernels are not strictly monotone in problem size (tile
	// selection cliffs), but a bigger batch must never be *much* cheaper.
	d := newV100()
	f := func(b1Raw, b2Raw uint8) bool {
		b1 := int64(b1Raw%12) + 1
		b2 := b1 + int64(b2Raw%12) + 1
		mk := func(b int64) float64 {
			return d.BaseTime(&Kernel{Kind: KindGEMM, B: b, M: 256, N: 256, K: 256})
		}
		return mk(b2) >= 0.6*mk(b1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFasterGPUFasterOnBigGEMM(t *testing.T) {
	v := NewDevice(hw.V100Platform().GPU, 1)
	p := NewDevice(hw.P100Platform().GPU, 1)
	k := Kernel{Kind: KindGEMM, B: 1, M: 4096, N: 4096, K: 4096}
	if v.BaseTime(&k) >= p.BaseTime(&k) {
		t.Error("V100 should beat P100 on a large GEMM")
	}
}

func TestConvAsymmetricFilterPenalty(t *testing.T) {
	d := newV100()
	sym := Kernel{Kind: KindConv, N: 32, C: 128, H: 17, W: 17, K: 128, R: 7, S: 7, Stride: 1, PadH: 3, PadW: 3}
	asym := Kernel{Kind: KindConv, N: 32, C: 128, H: 17, W: 17, K: 128, R: 1, S: 7, Stride: 1, PadW: 3}
	perFlopSym := d.BaseTime(&sym) / sym.FLOPs()
	perFlopAsym := d.BaseTime(&asym) / asym.FLOPs()
	if perFlopAsym <= perFlopSym {
		t.Error("asymmetric (1x7) conv should be less efficient per FLOP")
	}
}
