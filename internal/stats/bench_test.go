package stats

import (
	"fmt"
	"testing"

	"dlrmperf/internal/xrand"
)

// seriesSink keeps the benchmarked result live.
var seriesSink Series

// BenchmarkTrimmedSeries times the whisker trim of one overhead
// population at the pipeline's sizes: 120 values (one op's type over
// four batch sizes of 30 iterations), 9,000 (a family's pooled T1) and
// 190,000 (Inception's Defaults pool). The samples are log-normal with
// a tenth of them clamped to zero and a thin tail far out, the shape a
// corrected overhead population has. One Scratch serves every call, as
// in the pipeline and warmed before the timer starts, so an operation
// allocates nothing; benchdiff gates that zero.
func BenchmarkTrimmedSeries(b *testing.B) {
	for _, n := range []int{120, 9_000, 190_000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := xrand.New(uint64(n))
			body := xrand.LogNormalMeanCVDist(8, 0.3)
			xs := make([]float64, n)
			for i := range xs {
				switch rng.Intn(100) {
				case 0:
					xs[i] = 40 * rng.Draw(body)
				case 1, 2, 3, 4, 5, 6, 7, 8, 9, 10:
				default:
					xs[i] = rng.Draw(body)
				}
			}
			var s Scratch
			TrimmedSeries(xs, 1.5, &s)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				seriesSink = TrimmedSeries(xs, 1.5, &s)
			}
		})
	}
}
