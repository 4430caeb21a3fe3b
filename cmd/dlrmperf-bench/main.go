// Command dlrmperf-bench drives the Analysis Track of Fig. 3.
//
// In the default "sweep" mode it runs the kernel microbenchmark sweep
// for one kernel family on one (simulated) device and writes the
// dataset as JSON:
//
//	dlrmperf-bench -kernel GEMM -n 2000 -device V100 -o gemm_v100.json
//
// In "calibrate" mode it runs the full concurrent calibration engine
// for a device — every kernel-family job fanned out on the worker pool
// — prints the Table IV evaluation rows, and optionally exports the
// portable asset set that warm-starts dlrmperf-serve:
//
//	dlrmperf-bench -mode calibrate -device V100 -save v100_assets.json
//
// In "scenarios" mode it lists the registered scenario generators with
// their resolved defaults and, for multi-GPU DLRM scenarios, the
// sharding planner's device loads and imbalance:
//
//	dlrmperf-bench -mode scenarios
//
// Every mode accepts -cpuprofile and -memprofile, writing pprof
// profiles of the run for the optimization workflow documented in the
// README's Performance section:
//
//	dlrmperf-bench -mode calibrate -cpuprofile calib.pprof
//	go tool pprof -top calib.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"text/tabwriter"

	"dlrmperf/internal/engine"
	"dlrmperf/internal/hw"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/microbench"
	"dlrmperf/internal/models"
	"dlrmperf/internal/perfmodel"
	"dlrmperf/internal/scenario"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dlrmperf-bench:", err)
	os.Exit(1)
}

func main() {
	mode := flag.String("mode", "sweep", "sweep (one kernel family dataset) or calibrate (full engine calibration)")
	kernel := flag.String("kernel", "GEMM", "sweep mode: kernel kind (GEMM, EL-F, EL-B, concat, memcpy, transpose, tril-F, tril-B, elementwise, conv, batchnorm)")
	n := flag.Int("n", 1000, "sweep mode: number of shapes to sweep")
	device := flag.String("device", hw.V100, "device name")
	seed := flag.Uint64("seed", 2022, "random seed")
	workers := flag.Int("workers", 0, "calibrate mode: worker pool size (0 = GOMAXPROCS)")
	save := flag.String("save", "", "calibrate mode: write the device's portable assets to this path")
	out := flag.String("o", "", "sweep mode: output JSON path (default: stdout)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
	memprofile := flag.String("memprofile", "", "write an allocation profile at exit to this path")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile shows retention, not churn
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	switch *mode {
	case "sweep":
		sweep(*kernel, *n, *device, *seed, *out)
	case "calibrate":
		calibrate(*device, *seed, *workers, *save)
	case "scenarios":
		scenarios()
	default:
		fail(fmt.Errorf("unknown mode %q", *mode))
	}
}

// scenarios lists the registry with resolved defaults; multi-GPU DLRM
// entries get a static sharding-plan preview.
func scenarios() {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "scenario\tworkload\tbatch\tgpus\ttables\timbalance\tdescription\n")
	for _, name := range scenario.Names() {
		g, _ := scenario.Lookup(name)
		s, err := scenario.Build(name, 0, 0)
		if err != nil {
			fail(err)
		}
		imbalance := "-"
		tables := s.Tables
		if cfg, err := models.DLRMConfigFor(s.Workload, s.Batch); err == nil {
			if len(tables) == 0 {
				tables = scenario.TablesOf(cfg)
			}
			if s.NumDevices() > 1 {
				plan, err := scenario.PlanShards(tables, cfg.EmbDim, s.NumDevices())
				if err != nil {
					fail(err)
				}
				imbalance = fmt.Sprintf("%.1f%%", 100*plan.Imbalance())
			}
		}
		nTables := "-"
		if len(tables) > 0 {
			nTables = fmt.Sprintf("%d", len(tables))
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%s\t%s\t%s\n",
			name, s.Workload, s.Batch, s.NumDevices(), nTables, imbalance, g.Description)
	}
	tw.Flush()
}

// calibrate runs the device's full calibration on the engine's worker
// pool and prints the Table IV rows.
func calibrate(device string, seed uint64, workers int, save string) {
	// IncludeCNN keeps exported assets complete: a warm-started server
	// must predict CNN workloads too, exactly as a cold engine would.
	eng := engine.New(engine.Options{
		Seed: seed, SaltDeviceSeeds: true, Workers: workers,
		Calib: perfmodel.CalibOptions{IncludeCNN: true},
	})
	cal, err := eng.Calibration(device)
	if err != nil {
		fail(err)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "model\tGMAE\tmean\tstd\n")
	for _, e := range cal.Evals {
		fmt.Fprintf(tw, "%s\t%.2f%%\t%.2f%%\t%.2f%%\n",
			e.Row, 100*e.Summary.GMAE, 100*e.Summary.Mean, 100*e.Summary.Std)
	}
	tw.Flush()
	if save == "" {
		return
	}
	data, err := eng.SaveAssets(device)
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(save, data, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s assets to %s\n", device, save)
}

// sweep collects one kernel family's microbenchmark dataset.
func sweep(kernel string, n int, device string, seed uint64, out string) {
	p, err := hw.ByName(device)
	if err != nil {
		fail(err)
	}
	var kind kernels.Kind
	found := false
	for _, k := range kernels.Kinds() {
		if k.String() == kernel {
			kind = k
			found = true
		}
	}
	if !found {
		fail(fmt.Errorf("unknown kernel kind %q", kernel))
	}

	ds := microbench.CollectKind(p.GPU, kind, n, seed)
	data, err := json.MarshalIndent(ds, "", "  ")
	if err != nil {
		fail(err)
	}
	if out == "" {
		fmt.Println(string(data))
		return
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %d samples of %s on %s to %s\n", len(ds.Samples), kind, p.GPU.Name, out)
}
