// Command experiments regenerates every table and figure of the paper's
// evaluation section, plus the co-design case studies and ablations.
//
// Usage:
//
//	experiments [-run all|fig01|fig05|table04|fig07|fig08|fig09|table05|fig10|fig11|sharding|ablation]
//	            [-seed N] [-devices V100,TITAN Xp,P100] [-iters N] [-grid]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dlrmperf/internal/experiments"
	"dlrmperf/internal/mlp"
	"dlrmperf/internal/perfmodel"
)

func main() {
	run := flag.String("run", "all", "experiment to run (all, fig01, fig05, table04, fig07, fig08, fig09, table05, fig10, fig11, sharding, ablation)")
	seed := flag.Uint64("seed", 2022, "random seed")
	devices := flag.String("devices", "", "comma-separated device subset (default: all)")
	iters := flag.Int("iters", 30, "measured iterations per run")
	grid := flag.Bool("grid", false, "use Table II hyperparameter grid search for ML kernel models (slow)")
	shards := flag.Int("shards", 4, "device count for the sharding study")
	flag.Parse()

	opts := experiments.Options{Seed: *seed, Iters: *iters}
	if *devices != "" {
		opts.Devices = strings.Split(*devices, ",")
	}
	if *grid {
		opts.Calib = perfmodel.CalibOptions{Search: mlp.FastSearchSpace()}
	}
	s := experiments.NewSuite(opts)

	want := func(name string) bool { return *run == "all" || *run == name }
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	// The ablation pools profiled runs' samples, which the engine
	// releases once every database pooling them is resident — as fig09
	// makes V100's — so it is computed first and printed last.
	var ablation []experiments.AblationRow
	if want("ablation") {
		var err error
		if ablation, err = s.AblationOverheadPolicy(); err != nil {
			fail(err)
		}
	}
	if want("fig01") {
		rows, err := s.Fig01()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderFig01(rows))
	}
	if want("fig05") {
		res, err := s.Fig05()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderFig05(res))
	}
	if want("table04") {
		cells, err := s.Table04()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderTable04(cells, s.Options().Devices))
	}
	if want("fig07") {
		rows, err := s.Fig07()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderFig07(rows))
	}
	if want("fig08") {
		rows, err := s.Fig08()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderFig08(rows))
	}
	if want("fig09") || want("table05") {
		rows, err := s.Fig09()
		if err != nil {
			fail(err)
		}
		if want("fig09") {
			fmt.Println(experiments.RenderFig09(rows))
		}
		if want("table05") {
			fmt.Println(experiments.RenderTable05(experiments.Table05(rows)))
		}
	}
	if want("fig10") {
		rows, err := s.Fig10()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderFig10(rows))
	}
	if want("fig11") {
		rows, err := s.Fig11()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderFig11(rows))
	}
	if want("sharding") {
		schemes, err := s.Sharding(*shards)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderSharding(schemes))
	}
	if want("ablation") {
		fmt.Println(experiments.RenderAblation(ablation))
	}
}
