// Command dlrmperf-train calibrates the full kernel performance model
// registry for a device — every kernel family the predictor needs, the
// CNN ones (conv, batch-norm) included — on a worker pool of
// GOMAXPROCS, and prints the Table IV evaluation rows. The fitted
// models are bit-identical to a serial calibration of the same seed.
// With -grid each ML model is picked by the fast hyperparameter grid;
// with -paper-grid by the full 280-point Table II search, as the paper
// does (hours instead of seconds).
//
// Usage:
//
//	dlrmperf-train [-device V100] [-grid|-paper-grid] [-seed N] [-o registry.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dlrmperf/internal/export"
	"dlrmperf/internal/hw"
	"dlrmperf/internal/mlp"
	"dlrmperf/internal/perfmodel"
)

func main() {
	device := flag.String("device", hw.V100, "device name")
	seed := flag.Uint64("seed", 2022, "random seed")
	grid := flag.Bool("grid", false, "use the fast hyperparameter grid")
	paperGrid := flag.Bool("paper-grid", false, "use the full Table II grid (280 configs per model)")
	out := flag.String("o", "", "write the calibrated model registry as JSON to this path")
	flag.Parse()

	p, err := hw.ByName(*device)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var opts perfmodel.CalibOptions
	if *paperGrid {
		opts.Search = mlp.PaperSearchSpace()
	} else if *grid {
		opts.Search = mlp.FastSearchSpace()
	}

	cal := perfmodel.Calibrate(p.GPU, *seed, opts, 0)
	t := export.NewTable(fmt.Sprintf("Kernel performance models on %s (held-out evaluation)", p.GPU.Name),
		"kernel", "GMAE", "mean", "std", "n")
	for _, e := range cal.Evals {
		t.AddRow(e.Row, export.PctAbs(e.Summary.GMAE), export.PctAbs(e.Summary.Mean),
			export.PctAbs(e.Summary.Std), e.Summary.N)
	}
	fmt.Println(t.Render())

	if *out != "" {
		w, err := cal.Registry.Wire()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		data, err := json.Marshal(w)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote calibrated models to %s\n", *out)
	}
}
