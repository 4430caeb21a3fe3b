// Package stats implements the descriptive statistics and error metrics
// used throughout the paper's evaluation: geometric-mean absolute error
// (GMAE) for kernel models, geomean/min/max summaries for end-to-end
// errors (Table V), and the IQR whisker trimming applied to host-overhead
// samples before averaging (Section IV-B).
package stats

import (
	"errors"
	"math"
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
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted is Percentile over a non-empty ascending slice.
func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// TrimIQR removes samples outside the whiskers
// [Q1 - k*IQR, Q3 + k*IQR] and returns the surviving samples in their
// original order. The paper uses k = 1.5 when cleaning overhead samples.
// Inputs with fewer than 4 samples are returned unchanged.
func TrimIQR(xs []float64, k float64) []float64 {
	if len(xs) < 4 {
		return slices.Clone(xs)
	}
	// Both quartiles read one sorted copy, which then becomes the
	// output buffer.
	buf := slices.Clone(xs)
	slices.Sort(buf)
	q1 := percentileSorted(buf, 25)
	q3 := percentileSorted(buf, 75)
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
