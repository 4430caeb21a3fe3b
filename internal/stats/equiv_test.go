package stats

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// refTrimIQR is TrimIQR by its definition: the whiskers come from two
// independent Percentile calls.
func refTrimIQR(xs []float64, k float64) []float64 {
	if len(xs) < 4 {
		return slices.Clone(xs)
	}
	q1, q3 := Percentile(xs, 25), Percentile(xs, 75)
	lo, hi := q1-k*(q3-q1), q3+k*(q3-q1)
	var out []float64
	for _, x := range xs {
		if x >= lo && x <= hi {
			out = append(out, x)
		}
	}
	if len(out) == 0 {
		return slices.Clone(xs)
	}
	return out
}

// TestTrimIQRMatchesDefinition covers short inputs (n < 4 pass through),
// all-equal populations (IQR 0), heavy-tailed ones, and inverted
// whiskers (k < 0: every sample is an outlier and the data is kept).
func TestTrimIQRMatchesDefinition(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, rng.Intn(40))
		for i := range xs {
			switch seed % 3 {
			case 0:
				xs[i] = 7.5
			case 1:
				xs[i] = rng.ExpFloat64() * rng.ExpFloat64()
			default:
				xs[i] = float64(rng.Intn(5))
			}
		}
		before := slices.Clone(xs)
		for _, k := range []float64{1.5, 0, 0.1, -2} {
			if got, want := TrimIQR(xs, k), refTrimIQR(xs, k); !slices.Equal(got, want) {
				t.Errorf("TrimIQR(%v, %v) = %v, definition gives %v", xs, k, got, want)
				return false
			}
		}
		return slices.Equal(xs, before) // the input is not reordered
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
