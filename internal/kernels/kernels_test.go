package kernels

import (
	"math"
	"testing"
	"testing/quick"

	"dlrmperf/internal/hw"
)

func TestGEMMAccounting(t *testing.T) {
	g := GEMM{Batch: 1, M: 128, N: 64, K: 32}
	if got := g.FLOPs(); got != 2*128*64*32 {
		t.Errorf("FLOPs = %v", got)
	}
	r, w := g.Bytes()
	if r != 4*(128*32+32*64) || w != 4*128*64 {
		t.Errorf("Bytes = %v, %v", r, w)
	}
	if len(AppendFeatures(nil, g)) != 4 {
		t.Errorf("Features len = %d", len(AppendFeatures(nil, g)))
	}
}

func TestEmbeddingKindAndFLOPs(t *testing.T) {
	e := Embedding{B: 128, E: 1000, T: 4, L: 8, D: 64}
	if e.Kind() != KindEmbeddingFwd {
		t.Error("forward kind wrong")
	}
	b := e
	b.Backward = true
	if b.Kind() != KindEmbeddingBwd {
		t.Error("backward kind wrong")
	}
	if b.FLOPs() != 2*e.FLOPs() {
		t.Error("backward FLOPs should be 2x forward")
	}
}

func TestEmbeddingWithDefaults(t *testing.T) {
	e := Embedding{B: 1, E: 1, T: 1, L: 1, D: 1}
	if e.WithDefaults().RowsPerBlock != DefaultRowsPerBlock {
		t.Error("WithDefaults did not fill RowsPerBlock")
	}
	e.RowsPerBlock = 8
	if e.WithDefaults().RowsPerBlock != 8 {
		t.Error("WithDefaults overwrote explicit RowsPerBlock")
	}
}

func TestTrilOutElems(t *testing.T) {
	tr := Tril{B: 2, F: 9}
	if tr.OutElems() != 36 {
		t.Errorf("OutElems = %d, want 36", tr.OutElems())
	}
	fr, fw := tr.Bytes()
	br, bw := Tril{B: 2, F: 9, Backward: true}.Bytes()
	// Backward mirrors forward: reads what forward wrote, writes what it read.
	if fr != bw || fw != br {
		t.Errorf("tril fwd/bwd traffic not mirrored: fwd=(%v,%v) bwd=(%v,%v)", fr, fw, br, bw)
	}
}

func TestConvOutHWAndGEMM(t *testing.T) {
	c := Conv{N: 32, C: 64, H: 56, W: 56, K: 128, R: 3, S: 3, Stride: 1, PadH: 1, PadW: 1}
	p, q := c.OutHW()
	if p != 56 || q != 56 {
		t.Errorf("OutHW = %d,%d want 56,56", p, q)
	}
	g := c.AsGEMM()
	if g.M != 32*56*56 || g.N != 128 || g.K != 64*9 {
		t.Errorf("AsGEMM = %+v", g)
	}
	c2 := Conv{N: 1, C: 3, H: 224, W: 224, K: 64, R: 7, S: 7, Stride: 2, PadH: 3, PadW: 3}
	p, q = c2.OutHW()
	if p != 112 || q != 112 {
		t.Errorf("stride-2 OutHW = %d,%d want 112,112", p, q)
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

func newV100() *Device { return NewDevice(hw.V100Platform().GPU, 1) }

func TestGEMMTimeScalesWithWork(t *testing.T) {
	d := newV100()
	small := d.BaseTime(GEMM{Batch: 1, M: 256, N: 256, K: 256})
	big := d.BaseTime(GEMM{Batch: 1, M: 2048, N: 2048, K: 2048})
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
	got := d.BaseTime(GEMM{Batch: 1, M: 1024, N: 1024, K: 1024})
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
	a := GEMM{Batch: 1, M: 640, N: 512, K: 2048}
	b := GEMM{Batch: 1, M: 704, N: 512, K: 2048}
	ta := d.BaseTime(a) / a.FLOPs()
	tb := d.BaseTime(b) / b.FLOPs()
	if tb < ta*1.25 {
		t.Errorf("no wave quantization visible: %v vs %v µs/FLOP", tb, ta)
	}
}

func TestEmbeddingSmallTableFasterPerRow(t *testing.T) {
	d := newV100()
	small := Embedding{B: 1024, E: 1000, T: 8, L: 16, D: 64}
	large := Embedding{B: 1024, E: 10_000_000, T: 8, L: 16, D: 64}
	ts := d.BaseTime(small)
	tl := d.BaseTime(large)
	// The small table lives in L2, so it must be faster despite moving
	// the same logical traffic.
	if ts >= tl {
		t.Errorf("L2-resident lookup not faster: small=%v large=%v", ts, tl)
	}
}

func TestEmbeddingBackwardSlower(t *testing.T) {
	d := newV100()
	f := Embedding{B: 2048, E: 1_000_000, T: 8, L: 10, D: 64}
	b := f
	b.Backward = true
	if d.BaseTime(b) <= d.BaseTime(f) {
		t.Error("backward lookup should be slower than forward")
	}
}

func TestMemcpyLatencyFloor(t *testing.T) {
	d := newV100()
	tiny := d.BaseTime(Memcpy{NBytes: 64, Dir: H2D})
	if tiny < 5 {
		t.Errorf("tiny memcpy %v µs is below the driver latency floor", tiny)
	}
	big := d.BaseTime(Memcpy{NBytes: 64 << 20, Dir: H2D})
	// 64 MB over ~12 GB/s PCIe is ~5.4 ms.
	if big < 4000 || big > 9000 {
		t.Errorf("64MB H2D = %v µs, implausible", big)
	}
}

func TestTransposeAlignmentPenalty(t *testing.T) {
	d := newV100()
	aligned := d.BaseTime(Transpose{B: 64, M: 512, N: 512})
	misaligned := d.BaseTime(Transpose{B: 64, M: 512, N: 513})
	perByteA := aligned / (4 * 64 * 512 * 512)
	perByteM := misaligned / (4 * 64 * 512 * 513)
	if perByteM <= perByteA {
		t.Error("misaligned transpose should cost more per byte")
	}
}

func TestTrilBackwardSlower(t *testing.T) {
	d := newV100()
	f := d.BaseTime(Tril{B: 4096, F: 27})
	b := d.BaseTime(Tril{B: 4096, F: 27, Backward: true})
	if b <= f {
		t.Errorf("tril backward (%v) should exceed forward (%v)", b, f)
	}
}

func TestQuirkStability(t *testing.T) {
	d1 := NewDevice(hw.V100Platform().GPU, 1)
	d2 := NewDevice(hw.V100Platform().GPU, 999)
	k := GEMM{Batch: 1, M: 777, N: 333, K: 555}
	// BaseTime must not depend on the RNG seed — quirks are properties of
	// the (shape, device) pair, not of the run.
	if d1.BaseTime(k) != d2.BaseTime(k) {
		t.Error("BaseTime depends on seed; quirk must be deterministic")
	}
}

func TestQuirkVariesAcrossDevices(t *testing.T) {
	v := NewDevice(hw.V100Platform().GPU, 1)
	p := NewDevice(hw.P100Platform().GPU, 1)
	k := Transpose{B: 8, M: 100, N: 100}
	rv := v.BaseTime(k) / p.BaseTime(k)
	// Devices differ in both specs and quirks; just assert they differ.
	if rv == 1 {
		t.Error("different devices produced identical kernel time")
	}
}

func TestRunNoiseAveragesOut(t *testing.T) {
	d := newV100()
	k := GEMM{Batch: 1, M: 512, N: 512, K: 512}
	base := d.BaseTime(k)
	avg := d.RunAveraged(k, 200)
	if math.Abs(avg-base)/base > 0.02 {
		t.Errorf("200-run average %v deviates from base %v", avg, base)
	}
}

func TestRunIsNoisy(t *testing.T) {
	d := newV100()
	k := GEMM{Batch: 1, M: 512, N: 512, K: 512}
	a, b := d.Noisy(d.BaseTime(k)), d.Noisy(d.BaseTime(k))
	if a == b {
		t.Error("two runs returned identical noisy times")
	}
}

func TestAllKernelTimesPositive(t *testing.T) {
	for _, p := range hw.All() {
		d := NewDevice(p.GPU, 7)
		ks := []Kernel{
			GEMM{Batch: 1, M: 1, N: 1, K: 1},
			GEMM{Batch: 64, M: 2048, N: 1024, K: 512},
			Embedding{B: 1, E: 1, T: 1, L: 1, D: 1},
			Embedding{B: 4096, E: 14_000_000, T: 26, L: 1, D: 128},
			Embedding{B: 512, E: 80000, T: 8, L: 100, D: 128, Backward: true},
			Concat{OutBytes: 1, NInputs: 1},
			Concat{OutBytes: 1 << 26, NInputs: 27},
			Memcpy{NBytes: 1, Dir: H2D},
			Memcpy{NBytes: 1 << 28, Dir: D2D},
			Memcpy{NBytes: 1 << 20, Dir: D2H},
			Transpose{B: 1, M: 1, N: 1},
			Tril{B: 1, F: 2},
			Tril{B: 8192, F: 27, Backward: true},
			Elementwise{Name: "relu", NElems: 1 << 22, ReadsPerElem: 4, WritesPerElem: 4},
			Conv{N: 16, C: 3, H: 224, W: 224, K: 64, R: 7, S: 7, Stride: 2, PadH: 3, PadW: 3},
			BatchNorm{N: 16, C: 64, H: 112, W: 112},
		}
		for _, k := range ks {
			got := d.BaseTime(k)
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
			return d.BaseTime(GEMM{Batch: b, M: 256, N: 256, K: 256})
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
	k := GEMM{Batch: 1, M: 4096, N: 4096, K: 4096}
	if v.BaseTime(k) >= p.BaseTime(k) {
		t.Error("V100 should beat P100 on a large GEMM")
	}
}

func TestConvAsymmetricFilterPenalty(t *testing.T) {
	d := newV100()
	sym := Conv{N: 32, C: 128, H: 17, W: 17, K: 128, R: 7, S: 7, Stride: 1, PadH: 3, PadW: 3}
	asym := Conv{N: 32, C: 128, H: 17, W: 17, K: 128, R: 1, S: 7, Stride: 1, PadW: 3}
	perFlopSym := d.BaseTime(sym) / sym.FLOPs()
	perFlopAsym := d.BaseTime(asym) / asym.FLOPs()
	if perFlopAsym <= perFlopSym {
		t.Error("asymmetric (1x7) conv should be less efficient per FLOP")
	}
}
