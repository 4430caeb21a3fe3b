// Newgpu answers the paper's "how much performance can be gained with
// new GPUs?" what-if: the execution graph captured once is re-predicted
// against every calibrated device, with the host overheads taken from a
// profiled run on the current machine.
//
// Run with:
//
//	go run ./examples/newgpu
package main

import (
	"fmt"
	"log"

	"dlrmperf"
)

func main() {
	// The workload was captured (and its overheads profiled) on the P100
	// box; we ask what V100 or TITAN Xp would buy us.
	current := dlrmperf.P100
	basePipe, err := dlrmperf.NewPipeline(current)
	if err != nil {
		log.Fatal(err)
	}
	w, err := dlrmperf.NewModel(dlrmperf.DLRMMLPerf, 2048)
	if err != nil {
		log.Fatal(err)
	}
	db, err := basePipe.CollectOverheads(w, 1)
	if err != nil {
		log.Fatal(err)
	}
	baseMeas := basePipe.Measure(w, 2)
	basePred, err := basePipe.Predict(w, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on %s: measured %0.f us/batch, predicted %0.f us/batch\n\n",
		dlrmperf.DLRMMLPerf, current, baseMeas.IterTimeUs, basePred.E2EUs)

	fmt.Println("what-if: same workload, same host, different GPU:")
	fmt.Println("  device     predicted us/batch   speedup vs P100")
	for _, dev := range dlrmperf.Devices() {
		pipe := basePipe
		if dev != current {
			pipe, err = dlrmperf.NewPipeline(dev)
			if err != nil {
				log.Fatal(err)
			}
		}
		pred, err := pipe.Predict(w, db)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s  %18.0f   %14.2fx\n", dev, pred.E2EUs, basePred.E2EUs/pred.E2EUs)
	}
	fmt.Println("\n(only kernel times change: host overheads come from the captured trace,")
	fmt.Println(" so low-utilization workloads gain less from a faster GPU — the paper's point.)")
}
