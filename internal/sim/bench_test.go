package sim

import (
	"testing"

	"dlrmperf/internal/models"
)

// BenchmarkSimRun is one profiled run as the engine's first touch makes
// it (5 warm-up + 30 recorded iterations) of the workload with the
// longest trace, Inception-V3: ~3,400 events per iteration.
func BenchmarkSimRun(b *testing.B) {
	m, err := models.Build(models.NameInceptionV3, 32)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Platform: v100(), Seed: 1, Warmup: 5, Iters: 30, Profile: true, Workload: m.Name}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(m.Graph, cfg)
	}
}

// BenchmarkSimProfile is BenchmarkSimRun in observer mode: the same run
// handed op by op to an observer that keeps nothing, so what is left is
// the simulator itself, with no event log.
func BenchmarkSimProfile(b *testing.B) {
	m, err := models.Build(models.NameInceptionV3, 32)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Platform: v100(), Seed: 1, Warmup: 5, Iters: 30, Profile: true, Workload: m.Name, Observer: &tally{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(m.Graph, cfg)
	}
}
