// Sharding reproduces the Section V-A(c) load-balancing workflow on
// top of the scenario layer's planner: given a heterogeneous population
// of embedding tables to split across several GPUs, compare the static
// rows×dim plan against greedy LPT on the kernel model's *predicted*
// per-table lookup time — no training job ever launches.
//
// Run with:
//
//	go run ./examples/sharding
package main

import (
	"fmt"
	"log"

	"dlrmperf"
	"dlrmperf/internal/scenario"
	"dlrmperf/internal/workload"
)

func main() {
	pipe, err := dlrmperf.NewPipeline(dlrmperf.V100)
	if err != nil {
		log.Fatal(err)
	}

	const nDevices = 4
	const batch, dim = 2048, 64

	// A production-shaped population: a few enormous, hot tables and a
	// long tail of small, cold ones.
	tables := []workload.TableSpec{
		{Rows: 14_000_000, Lookups: 64}, {Rows: 11_000_000, Lookups: 32},
		{Rows: 8_000_000, Lookups: 32}, {Rows: 4_000_000, Lookups: 16},
		{Rows: 1_000_000, Lookups: 16}, {Rows: 1_000_000, Lookups: 10},
		{Rows: 500_000, Lookups: 10}, {Rows: 500_000, Lookups: 8},
		{Rows: 200_000, Lookups: 8}, {Rows: 200_000, Lookups: 4},
		{Rows: 100_000, Lookups: 4}, {Rows: 100_000, Lookups: 2},
		{Rows: 50_000, Lookups: 2}, {Rows: 50_000, Lookups: 1},
		{Rows: 20_000, Lookups: 1}, {Rows: 20_000, Lookups: 1},
	}

	// The co-design cost: the calibrated kernel model's predicted lookup
	// time per table.
	cost := func(t workload.TableSpec) float64 {
		us, err := pipe.PredictKernelUs(batch, t.Rows, t.Lookups, dim)
		if err != nil {
			log.Fatal(err)
		}
		return us
	}

	show := func(name string, p scenario.Plan) {
		fmt.Printf("%-22s", name)
		for d := range p.Assignments {
			us := 0.0
			for _, t := range p.TablesFor(d, tables) {
				us += cost(t)
			}
			fmt.Printf("  %6.1fus", us)
		}
		fmt.Printf("   imbalance %5.1f%%\n", 100*p.Imbalance())
	}

	static, err := scenario.PlanShards(tables, dim, nDevices)
	if err != nil {
		log.Fatal(err)
	}
	predicted, err := scenario.PlanShardsCost(tables, nDevices, cost)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("predicted embedding-lookup time per device (B=%d, D=%d, %d tables):\n\n",
		batch, dim, len(tables))
	show("static-rows-x-dim", static)
	show("greedy-predicted-LPT", predicted)
	fmt.Println("\nthe LPT scheme balances devices using only model predictions —")
	fmt.Println("the evaluation the paper describes for multi-GPU embedding sharding.")
	fmt.Println("the same planner shards tables inside every multi-GPU scenario",
		"(a dlrmperf.PredictRequest with GPUs > 1, or cmd/dlrmperf-serve).")
}
