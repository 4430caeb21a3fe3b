// Package stats implements the descriptive statistics and error metrics
// used throughout the paper's evaluation: geometric-mean absolute error
// (GMAE) for kernel models, geomean/min/max summaries for end-to-end
// errors (Table V), and the IQR whisker trimming applied to host-overhead
// samples before averaging (Section IV-B).
//
// Percentiles and the whisker quartiles read only the order statistics
// at their interpolation ranks, so they are selected, not sorted: one
// deterministic quickselect on the copy each function makes, linear in
// the sample count on every input the pipeline produces, and giving the
// value a full sort would.
package stats

import (
	"errors"
	"math"
	"math/bits"
	"slices"
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
	v, _ := percentile(slices.Clone(xs), 0, p)
	return v
}

// percentile is the p-th percentile of a non-empty buf: linear
// interpolation between the values at the floor and ceiling ranks
// buf would hold sorted. Those are found by selection, which reorders
// buf and leaves the floor rank lo in place — nothing greater before
// it, nothing smaller after — and lo is returned so that a second call
// for a higher p can pass it as from and search only buf[from:]. Values
// order as slices.Sort orders them.
func percentile(buf []float64, from int, p float64) (v float64, lo int) {
	hi, frac := 0, 0.0
	switch {
	case p <= 0:
	case p >= 100:
		lo, hi = len(buf)-1, len(buf)-1
	default:
		rank := p / 100 * float64(len(buf)-1)
		lo, hi = int(math.Floor(rank)), int(math.Ceil(rank))
		frac = rank - float64(lo)
	}
	selectRank(buf[from:], lo-from)
	if lo == hi {
		return buf[lo], lo
	}
	// The ceiling rank holds the smallest value above the floor rank.
	return buf[lo]*(1-frac) + slices.Min(buf[lo+1:])*frac, lo
}

// selectRank reorders xs so that xs[k] is the value a sort would put
// there, everything before it is no greater and everything after it no
// smaller. It is quickselect with a three-way partition around a
// median-of-three pivot, so runs of equal values — a population of
// clamped zeros — settle in one pass, and a range that fails to shrink
// fast enough is sorted outright, which bounds the worst case at
// n log n. Every step is deterministic.
func selectRank(xs []float64, k int) {
	nan := 0 // NaNs go first, as slices.Sort puts them; the rest compares with <
	for i, x := range xs {
		if x != x {
			xs[nan], xs[i] = x, xs[nan]
			nan++
		}
	}
	if k < nan {
		return
	}
	xs, k = xs[nan:], k-nan
	for budget := 2 * bits.Len(uint(len(xs))); len(xs) > 1; budget-- {
		if budget == 0 {
			slices.Sort(xs)
			return
		}
		a, pivot, c := xs[0], xs[len(xs)/2], xs[len(xs)-1]
		if pivot < a {
			a, pivot = pivot, a
		}
		if c < pivot {
			pivot = max(a, c)
		}
		// xs[:lt] < pivot, xs[lt:i] == pivot, xs[gt:] > pivot.
		lt, i, gt := 0, 0, len(xs)
		for i < gt {
			switch x := xs[i]; {
			case x < pivot:
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case x > pivot:
				gt--
				xs[i], xs[gt] = xs[gt], x
			default:
				i++
			}
		}
		switch {
		case k < lt:
			xs = xs[:lt]
		case k >= gt:
			xs, k = xs[gt:], k-gt
		default:
			return
		}
	}
}

// TrimIQR removes samples outside the whiskers
// [Q1 - k*IQR, Q3 + k*IQR] and returns the surviving samples in their
// original order. The paper uses k = 1.5 when cleaning overhead samples.
// Inputs with fewer than 4 samples are returned unchanged.
func TrimIQR(xs []float64, k float64) []float64 {
	if len(xs) < 4 {
		return slices.Clone(xs)
	}
	// Both quartiles are selected in one copy, Q3 above Q1's rank; the
	// copy then becomes the output buffer.
	buf := slices.Clone(xs)
	q1, r1 := percentile(buf, 0, 25)
	q3, _ := percentile(buf, r1, 75)
	iqr := q3 - q1
	lo := q1 - k*iqr
	hi := q3 + k*iqr
	out := buf[:0]
	for _, x := range xs {
		if x >= lo && x <= hi {
			out = append(out, x)
		}
	}
	if len(out) == 0 {
		// Degenerate distributions (all mass at outliers) keep the data.
		return append(out, xs...)
	}
	return out
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

// GMAE returns the geometric mean of the absolute relative errors of the
// prediction/actual pairs, the headline kernel-model metric in Table IV.
// Pairs with non-positive actual values are skipped.
func GMAE(pred, actual []float64) float64 {
	if len(pred) != len(actual) {
		panic("stats: GMAE length mismatch")
	}
	errs := make([]float64, 0, len(pred))
	for i := range pred {
		if actual[i] <= 0 {
			continue
		}
		errs = append(errs, AbsRelErr(pred[i], actual[i]))
	}
	return Geomean(errs)
}

// MeanAbsRelErr returns the arithmetic mean of absolute relative errors.
func MeanAbsRelErr(pred, actual []float64) float64 {
	if len(pred) != len(actual) {
		panic("stats: MeanAbsRelErr length mismatch")
	}
	errs := make([]float64, 0, len(pred))
	for i := range pred {
		if actual[i] <= 0 {
			continue
		}
		errs = append(errs, AbsRelErr(pred[i], actual[i]))
	}
	return Mean(errs)
}

// StdAbsRelErr returns the standard deviation of absolute relative errors.
func StdAbsRelErr(pred, actual []float64) float64 {
	if len(pred) != len(actual) {
		panic("stats: StdAbsRelErr length mismatch")
	}
	errs := make([]float64, 0, len(pred))
	for i := range pred {
		if actual[i] <= 0 {
			continue
		}
		errs = append(errs, AbsRelErr(pred[i], actual[i]))
	}
	return Std(errs)
}

// ErrorSummary bundles the three error statistics reported per kernel and
// per platform in Table IV.
type ErrorSummary struct {
	GMAE float64
	Mean float64
	Std  float64
	N    int
}

// Summarize computes an ErrorSummary over prediction/actual pairs.
func Summarize(pred, actual []float64) ErrorSummary {
	return ErrorSummary{
		GMAE: GMAE(pred, actual),
		Mean: MeanAbsRelErr(pred, actual),
		Std:  StdAbsRelErr(pred, actual),
		N:    len(pred),
	}
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
