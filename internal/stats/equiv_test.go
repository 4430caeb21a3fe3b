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

// drawSamples draws a population of one of the shapes the overhead
// pipeline produces, or that stress a selection: all equal (IQR 0),
// heavy-tailed, five-valued, mostly exact zeros (what clamping a
// correction produces), sorted, reversed and two-valued. Half the draws
// are short (n < 40), half run to 5,000, well past any small-slice
// cutoff.
func drawSamples(rng *rand.Rand) []float64 {
	n := rng.Intn(40)
	if rng.Intn(2) == 0 {
		n = rng.Intn(5001)
	}
	xs := make([]float64, n)
	shape := rng.Intn(7)
	for i := range xs {
		switch shape {
		case 0:
			xs[i] = 7.5
		case 1, 4, 5:
			xs[i] = rng.ExpFloat64() * rng.ExpFloat64()
		case 2:
			xs[i] = float64(rng.Intn(5))
		case 3:
			if rng.Intn(10) == 0 {
				xs[i] = rng.ExpFloat64()
			}
		default:
			xs[i] = float64(rng.Intn(2)) * 3
		}
	}
	switch shape {
	case 4:
		slices.Sort(xs)
	case 5:
		slices.Sort(xs)
		slices.Reverse(xs)
	}
	return xs
}

// TestTrimIQRMatchesDefinition covers short inputs (n < 4 pass through),
// long ones, all-equal populations (IQR 0), heavy-tailed ones, and
// inverted whiskers (k < 0: every sample is an outlier and the data is
// kept).
func TestTrimIQRMatchesDefinition(t *testing.T) {
	property := func(seed int64) bool {
		xs := drawSamples(rand.New(rand.NewSource(seed)))
		before := slices.Clone(xs)
		for _, k := range []float64{1.5, 0, 0.1, -2} {
			if got, want := TrimIQR(xs, k), refTrimIQR(xs, k); !slices.Equal(got, want) {
				t.Errorf("TrimIQR(%d samples, %v): %d kept, definition keeps %d", len(xs), k, len(got), len(want))
				return false
			}
		}
		return slices.Equal(xs, before) // the input is not reordered
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
