package sim_test

import (
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/sim"
)

// BenchmarkSimRun is one profiled run as the engine's first touch makes
// it (5 warm-up + 30 recorded iterations) of the workload with the
// longest trace, Inception-V3 (~3,400 events per iteration), observed by
// nobody: what is left is the simulator and the numbers it keeps.
func BenchmarkSimRun(b *testing.B) {
	m, err := models.Build(models.NameInceptionV3, 32)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{Platform: hw.V100Platform(), Seed: 1, Warmup: 5, Iters: 30, Profile: true, Workload: m.Name}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(m.Graph, cfg)
	}
}

// BenchmarkSimProfile is BenchmarkSimRun handed op by op to an observer
// that keeps nothing: the cost of being observed.
func BenchmarkSimProfile(b *testing.B) {
	m, err := models.Build(models.NameInceptionV3, 32)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{Platform: hw.V100Platform(), Seed: 1, Warmup: 5, Iters: 30, Profile: true, Workload: m.Name, Observer: &tally{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(m.Graph, cfg)
	}
}
