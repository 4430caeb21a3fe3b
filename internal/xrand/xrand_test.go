package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("generators with same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	s := r.Split()
	// The split stream must not replay the parent stream.
	parent := make([]uint64, 50)
	for i := range parent {
		parent[i] = r.Uint64()
	}
	for i := 0; i < 50; i++ {
		v := s.Uint64()
		for _, p := range parent {
			if v == p {
				t.Fatalf("split stream collided with parent at step %d", i)
			}
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalMeanCV(t *testing.T) {
	r := New(17)
	const n = 400000
	wantMean, cv := 8.0, 0.4
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Draw(LogNormalMeanCVDist(wantMean, cv))
		if v <= 0 {
			t.Fatalf("lognormal produced non-positive value %v", v)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-wantMean)/wantMean > 0.02 {
		t.Errorf("lognormal mean = %v, want ~%v", mean, wantMean)
	}
	if math.Abs(std/mean-cv)/cv > 0.05 {
		t.Errorf("lognormal cv = %v, want ~%v", std/mean, cv)
	}
}

func TestLogNormalMeanCVDegenerate(t *testing.T) {
	r := New(19)
	if got := r.Draw(LogNormalMeanCVDist(0, 0.5)); got != 0 {
		t.Errorf("mean 0 should return 0, got %v", got)
	}
	if got := r.Draw(LogNormalMeanCVDist(5, 0)); got != 5 {
		t.Errorf("cv 0 should return mean, got %v", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfUniformWhenSkewZero(t *testing.T) {
	r := New(29)
	z := NewZipf(r, 10, 0)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Errorf("bucket %d frequency %v, want ~0.1", i, frac)
		}
	}
}

func TestZipfSkewConcentrates(t *testing.T) {
	r := New(31)
	z := NewZipf(r, 1000, 1.0)
	top10 := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if z.Next() < 10 {
			top10++
		}
	}
	frac := float64(top10) / n
	if frac < 0.3 {
		t.Errorf("zipf(1.0) top-10 mass = %v, want > 0.3", frac)
	}
}

func TestZipfBounds(t *testing.T) {
	r := New(37)
	z := NewZipf(r, 17, 0.8)
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v < 0 || v >= 17 {
			t.Fatalf("Zipf.Next out of range: %d", v)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	r := New(1)
	for _, tc := range []struct {
		n int
		s float64
	}{{0, 1}, {-1, 1}, {5, -0.1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %v) did not panic", tc.n, tc.s)
				}
			}()
			NewZipf(r, tc.n, tc.s)
		}()
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(41)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("shuffle changed element sum: %d != %d", got, sum)
	}
}

func TestHashStringStableAndDistinct(t *testing.T) {
	// The value is pinned: engine asset seeds depend on it, so changing
	// the hash silently re-seeds every per-device calibration stream.
	if got := HashString("V100"); got != 15833220653259277578 {
		t.Fatalf("HashString(V100) = %d, want 15833220653259277578", got)
	}
	if HashString("") != 1469598103934665603 {
		t.Fatal("empty-label hash must be the offset basis (FNV-1a's, one digit short)")
	}
	seen := map[uint64]string{}
	for _, s := range []string{"V100", "TITAN Xp", "P100", "DLRM_default", "DLRM_MLPerf"} {
		if prev, ok := seen[HashString(s)]; ok {
			t.Fatalf("hash collision between %q and %q", prev, s)
		}
		seen[HashString(s)] = s
	}
}

func TestZipfStreamMatchesInlineLoop(t *testing.T) {
	z := NewZipf(New(2022), 48, 1.1)
	want := make([]int, 200)
	for i := range want {
		want[i] = z.Next()
	}
	got := ZipfStream(New(2022), 48, 1.1, 200)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ZipfStream[%d] = %d, inline loop drew %d", i, got[i], want[i])
		}
	}
}
