package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// refTrimIQR is the whisker trim by its definition: the samples inside
// [Q1 - k*IQR, Q3 + k*IQR] in input order, the quartiles read off a
// sorted copy, all of them when there are fewer than 4 or none is
// inside.
func refTrimIQR(xs []float64, k float64) []float64 {
	return refTrimSorted(xs, sortedCopy(xs), k)
}

// refTrimSorted is refTrimIQR given xs sorted.
func refTrimSorted(xs, sorted []float64, k float64) []float64 {
	if len(xs) < 4 {
		return slices.Clone(xs)
	}
	q1, q3 := sortedPercentile(sorted, 25), sortedPercentile(sorted, 75)
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

func sortedCopy(xs []float64) []float64 {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return sorted
}

// sortedPercentile is refPercentile on an already sorted slice.
func sortedPercentile(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
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

// sameSeries reports whether a and b agree bit for bit.
func sameSeries(a, b Series) bool {
	return math.Float64bits(a.Mean) == math.Float64bits(b.Mean) &&
		math.Float64bits(a.Std) == math.Float64bits(b.Std) && a.N == b.N
}

// TestTrimIQRMatchesDefinition holds TrimmedSeries to Describe of the
// definition's kept samples, bit for bit, over short inputs (n < 4 are
// kept whole), long ones, all-equal populations (IQR 0), heavy-tailed
// ones, NaNs mixed into a quarter of them, and inverted whiskers (k < 0:
// every sample is an outlier and the data is kept). One Scratch serves
// every population, as it does in the overhead pipeline.
func TestTrimIQRMatchesDefinition(t *testing.T) {
	var s Scratch
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := drawSamples(rng)
		if len(xs) > 0 && rng.Intn(4) == 0 {
			for range len(xs)/10 + 1 {
				xs[rng.Intn(len(xs))] = math.NaN()
			}
		}
		before := slices.Clone(xs)
		for _, k := range []float64{1.5, 0, 0.1, -2} {
			if got, want := TrimmedSeries(xs, k, &s), Describe(refTrimIQR(xs, k)); !sameSeries(got, want) {
				t.Errorf("TrimmedSeries(%d samples, %v) = %+v, definition gives %+v", len(xs), k, got, want)
				return false
			}
		}
		return slices.EqualFunc(xs, before, func(a, b float64) bool { return a == b || a != a && b != b })
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestTrimIQRMatchesDefinitionLarge runs the same contract on
// populations of 2^17 and more, the size of a pooled Defaults
// population, where the selection descends more than one level: a
// log-normal body with a heavy tail, the pooled clamped zeros (most of
// the mass on one value, so a wanted rank sits in a bucket of
// duplicates), signed values around ±0, and sorted input.
func TestTrimIQRMatchesDefinitionLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s Scratch
	shapes := []struct {
		name string
		at   func(i int) float64
	}{
		{"lognormal", func(int) float64 { return math.Exp(rng.NormFloat64()) * 8 }},
		{"heavy", func(int) float64 { return rng.ExpFloat64() * rng.ExpFloat64() * rng.ExpFloat64() }},
		{"zeros", func(int) float64 {
			if rng.Intn(3) != 0 {
				return 0
			}
			return rng.ExpFloat64()
		}},
		{"signed", func(i int) float64 {
			switch i % 5 {
			case 0:
				return math.Copysign(0, -1)
			case 1:
				return 0
			}
			return rng.NormFloat64() * 3
		}},
		{"sorted", func(i int) float64 { return float64(i/3) * 0.5 }},
	}
	for _, shape := range shapes {
		for _, n := range []int{1 << 17, 190_000 + rng.Intn(1000)} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = shape.at(i)
			}
			sorted := sortedCopy(xs)
			for _, k := range []float64{1.5, 0, 0.1, -2} {
				if got, want := TrimmedSeries(xs, k, &s), Describe(refTrimSorted(xs, sorted, k)); !sameSeries(got, want) {
					t.Errorf("%s, %d samples, k=%v: TrimmedSeries = %+v, definition gives %+v", shape.name, n, k, got, want)
				}
			}
			for _, p := range []float64{0, 25, 50, 75, 98, 100, rng.Float64() * 100} {
				if got, want := Percentile(xs, p), sortedPercentile(sorted, p); got != want {
					t.Errorf("%s, %d samples: Percentile(%v) = %v, sorting gives %v", shape.name, n, p, got, want)
				}
			}
		}
	}
}
