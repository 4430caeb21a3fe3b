package overhead

import (
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/sim"
	"dlrmperf/internal/trace"
)

// BenchmarkPoolShared times the pooling step of a device's first touch
// alone — extraction, merge and trim, no simulation: the profiled traces
// behind a shared database (three DLRM workloads at four batch sizes,
// the serving defaults of 5 warmup and 30 measured iterations) are built
// outside the timer and pooled into one database per iteration.
func BenchmarkPoolShared(b *testing.B) {
	var trs []*trace.Trace
	for _, w := range models.DLRMNames() {
		for _, batch := range []int64{512, 1024, 2048, 4096} {
			m, err := models.Build(w, batch)
			if err != nil {
				b.Fatal(err)
			}
			trs = append(trs, sim.Run(m.Graph, sim.Config{
				Platform: hw.V100Platform(), Seed: uint64(batch), Warmup: 5, Iters: 30,
				Profile: true, Workload: w,
			}).Trace)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if db := Shared(trs); db.Defaults[0].N == 0 {
			b.Fatal("empty database")
		}
	}
}
