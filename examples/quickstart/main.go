// Quickstart: calibrate the performance model for a V100, build
// DLRM_default at batch 2048, measure it on the simulated device, then
// predict its per-batch training time with Algorithm 1 — the end-to-end
// flow of the paper's Fig. 3 pipeline.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"dlrmperf"
)

func main() {
	fmt.Println("calibrating kernel performance models for", dlrmperf.V100, "...")
	pipe, err := dlrmperf.NewPipeline(dlrmperf.V100)
	if err != nil {
		log.Fatal(err)
	}

	w, err := dlrmperf.NewModel(dlrmperf.DLRMDefault, 2048)
	if err != nil {
		log.Fatal(err)
	}

	// "Run" the workload on the simulated V100 (the stand-in for real
	// hardware in this reproduction).
	meas := pipe.Measure(w, 1)
	fmt.Printf("measured:   %8.0f us/batch  (GPU active %8.0f us, utilization %4.1f%%)\n",
		meas.IterTimeUs, meas.ActiveTimeUs, 100*meas.Utilization)

	// Collect host overheads from one profiled run, then predict without
	// ever running the workload again.
	db, err := pipe.CollectOverheads(w, 2)
	if err != nil {
		log.Fatal(err)
	}
	pred, err := pipe.Predict(w, db)
	if err != nil {
		log.Fatal(err)
	}

	// The kernel-only baseline is the sum of the predicted kernel times:
	// the prediction's GPU active time.
	rel := func(v float64) float64 { return 100 * (v - meas.IterTimeUs) / meas.IterTimeUs }
	fmt.Printf("Algorithm 1:%8.0f us/batch  (%+5.1f%% vs measured)\n", pred.E2EUs, rel(pred.E2EUs))
	fmt.Printf("kernel-only:%8.0f us/batch  (%+5.1f%% — misses the device idle time)\n", pred.ActiveUs, rel(pred.ActiveUs))

	// The kernel models themselves: Table IV-style held-out errors.
	fmt.Println("\nkernel model GMAE (held-out):")
	errs := pipe.KernelModelErrors()
	for _, row := range []string{"EL-FH", "EL-BH", "GEMM", "transpose", "tril-F", "tril-B", "concat", "memcpy"} {
		fmt.Printf("  %-10s %5.2f%%\n", row, 100*errs[row][0])
	}
}
