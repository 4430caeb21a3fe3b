package overhead

import (
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/sim"
)

// BenchmarkPoolShared times the pooling step of a device's first touch
// alone — merge and trim, no simulation: the profiled runs behind a
// shared database (three DLRM workloads at four batch sizes, the serving
// defaults of 5 warmup and 30 measured iterations) write their samples
// outside the timer, and are pooled into one database per iteration. The
// pool has four workers whatever the box, so its goroutines, and with
// them the allocation count, do not follow the core count.
func BenchmarkPoolShared(b *testing.B) {
	c := NewCollector()
	var runs []*Samples
	for _, w := range models.DLRMNames() {
		for _, batch := range []int64{512, 1024, 2048, 4096} {
			m, err := models.Build(w, batch)
			if err != nil {
				b.Fatal(err)
			}
			runs = append(runs, c.Profile(m.Graph, sim.Config{
				Platform: hw.V100Platform(), Seed: uint64(batch), Warmup: 5, Iters: 30,
				Profile: true, Workload: w,
			}))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := c.Pool(len(runs), 4, func(i int) (*Samples, error) { return runs[i], nil })
		if err != nil || db.Defaults[0].N == 0 {
			b.Fatal("empty database", err)
		}
	}
}
