// Package stats implements the descriptive statistics and error metrics
// used throughout the paper's evaluation: geometric-mean absolute error
// (GMAE) for kernel models, geomean/min/max summaries for end-to-end
// errors (Table V), and the IQR whisker trimming applied to host-overhead
// samples before averaging (Section IV-B).
//
// Percentiles and the whisker quartiles read only the order statistics
// at their interpolation ranks, so they are selected, not sorted: one
// exact radix selection over order-preserving integer keys (select.go)
// finds every rank a caller asks for in one descent, in time linear in
// the sample count, and gives the value a full sort would.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs (0 for fewer than
// two samples).
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Min returns the minimum of xs. It panics on empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Geomean returns the geometric mean of xs, which must all be positive.
// Zero-valued entries are clamped to a tiny epsilon so that a single
// perfect prediction (0 error) does not collapse the whole summary, the
// same pragmatic choice made when summarizing error tables.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	const eps = 1e-12
	s := 0.0
	for _, x := range xs {
		if x < eps {
			x = eps
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It panics on empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	lo, hi, frac := percentileRanks(len(xs), p)
	var v [2]float64
	new(Scratch).orderStats(xs, []int{lo, hi}, v[:])
	return interpolate(v[0], v[1], frac)
}

// percentileRanks returns the floor and ceiling ranks the p-th
// percentile of n values interpolates between, and the ceiling's
// weight, which is 0 exactly when the ranks coincide.
func percentileRanks(n int, p float64) (lo, hi int, frac float64) {
	switch {
	case p <= 0:
	case p >= 100:
		lo, hi = n-1, n-1
	default:
		rank := p / 100 * float64(n-1)
		lo, hi = int(math.Floor(rank)), int(math.Ceil(rank))
		frac = rank - float64(lo)
	}
	return lo, hi, frac
}

// interpolate is the value frac of the way from the floor rank's value
// a to the ceiling rank's b.
func interpolate(a, b, frac float64) float64 {
	if frac == 0 {
		return a
	}
	return a*(1-frac) + b*frac
}

// TrimmedSeries describes the samples of xs inside the whiskers
// [Q1 - k*IQR, Q3 + k*IQR]; the paper uses k = 1.5 when cleaning
// overhead samples. Inputs with fewer than 4 samples are kept whole,
// and so is one with no sample inside (all mass at outliers, a NaN
// quartile, inverted whiskers at k < 0). The quartiles come from the
// four order statistics they interpolate between, selected in s, and
// the kept samples are never copied: one pass over xs in input order
// sums them, a second their squared deviations, so the result is bit
// for bit Describe of the kept samples in their original order. s is
// reused across calls and grows to the largest input it has seen.
func TrimmedSeries(xs []float64, k float64, s *Scratch) Series {
	if len(xs) < 4 {
		return Describe(xs)
	}
	lo1, hi1, f1 := percentileRanks(len(xs), 25)
	lo3, hi3, f3 := percentileRanks(len(xs), 75)
	var v [4]float64
	s.orderStats(xs, []int{lo1, hi1, lo3, hi3}, v[:])
	q1, q3 := interpolate(v[0], v[1], f1), interpolate(v[2], v[3], f3)
	iqr := q3 - q1
	lo := q1 - k*iqr
	hi := q3 + k*iqr
	n, sum := 0, 0.0
	for _, x := range xs {
		if x >= lo && x <= hi {
			sum += x
			n++
		}
	}
	if n == 0 {
		// Degenerate distributions (all mass at outliers) keep the data.
		return Describe(xs)
	}
	mean, ss := sum/float64(n), 0.0
	if n < 2 {
		return Series{Mean: mean, N: n}
	}
	for _, x := range xs {
		if x >= lo && x <= hi {
			d := x - mean
			ss += d * d
		}
	}
	return Series{Mean: mean, Std: math.Sqrt(ss / float64(n)), N: n}
}

// RelErr returns the signed relative error (pred-actual)/actual.
// It panics if actual is 0.
func RelErr(pred, actual float64) float64 {
	if actual == 0 {
		panic("stats: RelErr with zero actual")
	}
	return (pred - actual) / actual
}

// AbsRelErr returns |pred-actual|/actual.
func AbsRelErr(pred, actual float64) float64 {
	return math.Abs(RelErr(pred, actual))
}

// ErrorSummary bundles the three error statistics reported per kernel and
// per platform in Table IV.
type ErrorSummary struct {
	GMAE float64
	Mean float64
	Std  float64
	N    int
}

// Summarize computes an ErrorSummary over prediction/actual pairs:
// the geometric mean (GMAE, the headline kernel-model metric in Table
// IV), the mean and the standard deviation of their absolute relative
// errors. Pairs with non-positive actual values are skipped; N counts
// every pair. It panics if the slices differ in length.
func Summarize(pred, actual []float64) ErrorSummary {
	if len(pred) != len(actual) {
		panic("stats: Summarize length mismatch")
	}
	errs := make([]float64, 0, len(pred))
	for i := range pred {
		if actual[i] <= 0 {
			continue
		}
		errs = append(errs, AbsRelErr(pred[i], actual[i]))
	}
	return ErrorSummary{GMAE: Geomean(errs), Mean: Mean(errs), Std: Std(errs), N: len(pred)}
}

// Series summarizes a plain sample set with the fields plotted in the
// overhead figures (mean and std).
type Series struct {
	Mean float64
	Std  float64
	N    int
}

// Describe returns mean/std/count for xs.
func Describe(xs []float64) Series {
	return Series{Mean: Mean(xs), Std: Std(xs), N: len(xs)}
}
