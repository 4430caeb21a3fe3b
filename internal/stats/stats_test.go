package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dlrmperf/internal/xrand"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}

func TestStd(t *testing.T) {
	if got := Std([]float64{2, 2, 2}); got != 0 {
		t.Errorf("Std of constant = %v, want 0", got)
	}
	got := Std([]float64{1, 3})
	if !almost(got, 1, 1e-12) {
		t.Errorf("Std([1,3]) = %v, want 1", got)
	}
	if got := Std([]float64{5}); got != 0 {
		t.Errorf("Std of single = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 {
		t.Errorf("Min = %v", Min(xs))
	}
	if Max(xs) != 7 {
		t.Errorf("Max = %v", Max(xs))
	}
}

func TestMinPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Min(nil) did not panic")
		}
	}()
	Min(nil)
}

func TestGeomean(t *testing.T) {
	got := Geomean([]float64{1, 100})
	if !almost(got, 10, 1e-9) {
		t.Errorf("Geomean([1,100]) = %v, want 10", got)
	}
	if got := Geomean(nil); got != 0 {
		t.Errorf("Geomean(nil) = %v, want 0", got)
	}
}

func TestGeomeanLEArithmeticMean(t *testing.T) {
	rng := xrand.New(1)
	f := func(seed uint16) bool {
		n := int(seed%20) + 2
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*10 + 0.01
		}
		return Geomean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p, want float64
	}{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); !almost(got, 5, 1e-12) {
		t.Errorf("Percentile(50) = %v, want 5", got)
	}
}

// refPercentile is Percentile by sorting a copy and interpolating
// between the closest ranks.
func refPercentile(xs []float64, p float64) float64 {
	return sortedPercentile(sortedCopy(xs), p)
}

// TestPercentileMatchesSort holds the selection to the sort-based
// reference, bit for bit, at random p over the shapes and lengths of
// TestTrimIQRMatchesDefinition — a quarter of them with NaNs mixed in,
// which both order first — and checks the input is not reordered.
func TestPercentileMatchesSort(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := drawSamples(rng)
		if len(xs) == 0 {
			xs = append(xs, rng.ExpFloat64())
		}
		if rng.Intn(4) == 0 {
			for range len(xs)/10 + 1 {
				xs[rng.Intn(len(xs))] = math.NaN()
			}
		}
		before := slices.Clone(xs)
		for _, p := range []float64{rng.Float64() * 100, rng.Float64() * 100, 0, 25, 50, 75, 100} {
			got, want := Percentile(xs, p), refPercentile(xs, p)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("Percentile(%d samples, %v) = %v, sorting gives %v", len(xs), p, got, want)
				return false
			}
		}
		return slices.EqualFunc(xs, before, func(a, b float64) bool { return a == b || a != a && b != b })
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTrimIQRRemovesOutliers(t *testing.T) {
	xs := []float64{5, 6, 5, 7, 6, 5, 6, 7, 500}
	got := TrimmedSeries(xs, 1.5, new(Scratch))
	if want := Describe(xs[:8]); got != want {
		t.Fatalf("TrimmedSeries = %+v, want the outlier dropped: %+v", got, want)
	}
}

func TestTrimIQRSmallInputsUnchanged(t *testing.T) {
	xs := []float64{1, 1000, 2}
	if got, want := TrimmedSeries(xs, 1.5, new(Scratch)), Describe(xs); got != want {
		t.Fatalf("small input was trimmed: %+v, want %+v", got, want)
	}
}

// TestTrimIQRPreservesOrder: with k = 3 nothing is removed, and the
// sums run in input order, so the result is Describe of the input
// itself — not of a sorted copy, whose mean of these values rounds to
// 5.325000000000001.
func TestTrimIQRPreservesOrder(t *testing.T) {
	xs := []float64{4.2, 8.8, 4.8, 3, 3.2, 7.9, 2.6, 8.1}
	got := TrimmedSeries(xs, 3, new(Scratch))
	if want := Describe(xs); !sameSeries(got, want) {
		t.Fatalf("TrimmedSeries = %+v, want Describe of the input in order %+v", got, want)
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(90, 100); !almost(got, -0.1, 1e-12) {
		t.Errorf("RelErr = %v, want -0.1", got)
	}
	if got := AbsRelErr(90, 100); !almost(got, 0.1, 1e-12) {
		t.Errorf("AbsRelErr = %v, want 0.1", got)
	}
}

func TestGMAEPerfectPrediction(t *testing.T) {
	pred := []float64{1, 2, 3}
	if got := Summarize(pred, pred).GMAE; got > 1e-10 {
		t.Errorf("GMAE of perfect prediction = %v, want ~0", got)
	}
}

func TestGMAEKnownValue(t *testing.T) {
	pred := []float64{110, 121}
	actual := []float64{100, 110}
	got := Summarize(pred, actual).GMAE
	if !almost(got, 0.1, 1e-3) {
		t.Errorf("GMAE = %v, want ~0.1", got)
	}
}

func TestGMAESkipsNonPositiveActuals(t *testing.T) {
	pred := []float64{5, 110, 130}
	actual := []float64{0, 100, -1}
	s := Summarize(pred, actual)
	if !almost(s.GMAE, 0.1, 1e-9) || !almost(s.Mean, 0.1, 1e-9) || s.Std != 0 {
		t.Errorf("Summarize = %+v, want GMAE = mean = 0.1 and std 0 (non-positive-actual pairs skipped)", s)
	}
	if s.N != 3 {
		t.Errorf("N = %d, want 3: every pair counts", s.N)
	}
}

func TestGMAELengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Summarize did not panic")
		}
	}()
	Summarize([]float64{1}, []float64{1, 2})
}

func TestSummarize(t *testing.T) {
	pred := []float64{110, 90, 105}
	actual := []float64{100, 100, 100}
	s := Summarize(pred, actual)
	if s.N != 3 {
		t.Errorf("N = %d", s.N)
	}
	if !almost(s.Mean, (0.1+0.1+0.05)/3, 1e-9) {
		t.Errorf("Mean = %v", s.Mean)
	}
	if s.GMAE <= 0 || s.GMAE > s.Mean+1e-9 {
		t.Errorf("GMAE = %v should be positive and <= mean %v", s.GMAE, s.Mean)
	}
}

func TestDescribe(t *testing.T) {
	s := Describe([]float64{2, 4})
	if s.Mean != 3 || s.N != 2 {
		t.Errorf("Describe = %+v", s)
	}
	if !almost(s.Std, 1, 1e-12) {
		t.Errorf("Std = %v, want 1", s.Std)
	}
}
