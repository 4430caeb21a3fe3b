// Command bench is the repo's benchmark: four workloads on the path a
// client takes, a per-layer cost table, and the model's fidelity beside
// every speed number. README.md says why each workload exists and which
// end-to-end metric each layer metric should move.
//
// One workload, as the benchmark driver runs it (the last line of
// standard output is the result object BENCHMARK.json's contract asks
// for):
//
//	go run ./bench --workload hot-repeat --seed 1 --seconds 10 --trace 0
//
// The whole suite, traced, with a result file, the per-layer cost
// tables and the trace files beside it:
//
//	go run ./bench -seed 1 -out bench/out/result.json
//
// Either way every metric is printed by name and unit, every answer is
// checked, and the exit code is non-zero when a check fails.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// Seeds. Numbers quoted in an issue or a review come from defaultSeed;
// a claimed gain must also hold on heldOutSeed, which is not to be used
// while a change is being written.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

var workloadNames = []string{"hot-repeat", "novel-stream", "batch-mixed", "cold-start"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload and end with the driver's result line; empty runs the whole suite")
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("request-stream and engine seed (held out for claims: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", 30, "timed window of each workload")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	out := fs.String("out", "bench/out/result.json", "suite: the result file; trace files and budget.md go beside it")
	checkRepeat := fs.Bool("check-repeat", false, "suite: run twice and fail if any end-to-end metric differs by more than its bound")
	compare := fs.String("compare", "", "old.json,new.json: judge the second result file against the first and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	if *compare != "" {
		oldPath, newPath, ok := strings.Cut(*compare, ",")
		if !ok {
			return fail(fmt.Errorf("-compare wants old.json,new.json"))
		}
		spec, err := readBenchmarkSpec("BENCHMARK.json")
		if err != nil {
			return fail(err)
		}
		a, err := readResultFile(oldPath)
		if err != nil {
			return fail(err)
		}
		b, err := readResultFile(newPath)
		if err != nil {
			return fail(err)
		}
		cs, err := compareFiles(spec, a, b)
		if err != nil {
			return fail(err)
		}
		if !printComparisons(stdout, cs) {
			return 1
		}
		return 0
	}

	cfg := runConfig{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), setupReps: 3, outDir: filepath.Dir(*out)}
	if cfg.window <= 0 {
		return fail(fmt.Errorf("-seconds must be positive"))
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return fail(err)
	}
	ctx := context.Background()

	if *checkRepeat {
		ok, err := repeatSuite(*seed, *seconds, cfg.outDir, stdout, stderr)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	fid, err := measureFidelity()
	if err != nil {
		return fail(err)
	}
	if *workload != "" {
		cfg.traced = *trace != 0
		res, err := runWorkload(ctx, *workload, cfg, fid)
		if err != nil {
			return fail(err)
		}
		printResult(stdout, res)
		metrics := res.EndToEnd
		if cfg.traced {
			metrics = res.PerLayer
		}
		line, err := json.Marshal(map[string]any{
			"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			return 1
		}
		return 0
	}

	cfg.traced = true
	suite, err := runSuite(ctx, cfg, fid, stdout)
	if err != nil {
		return fail(err)
	}
	if err := writeJSON(*out, suite); err != nil {
		return fail(err)
	}
	budget, err := os.Create(filepath.Join(cfg.outDir, "budget.md"))
	if err != nil {
		return fail(err)
	}
	writeBudget(io.MultiWriter(stdout, budget), suite)
	if err := budget.Close(); err != nil {
		return fail(err)
	}
	for _, r := range suite.Workloads {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// repeatSuite runs the suite twice on the same code, each time in a
// process of its own (a second pass in a used process runs in a grown,
// scavenged heap and is 10-40% slower, which says nothing about the
// code), and fails if any end-to-end metric of any workload differs by
// more than its bound. The spread it saw goes to repeat.json, beside
// each bound: BENCHMARK.json's key set is fixed by its contract.
func repeatSuite(seed uint64, seconds float64, outDir string, stdout, stderr io.Writer) (bool, error) {
	spec, err := readBenchmarkSpec("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	ok := true
	var files [2]*resultFile
	for i := range files {
		path := filepath.Join(outDir, fmt.Sprintf("repeat-%d.json", i+1))
		cmd := exec.Command(exe, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-out", path)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				return false, err
			}
			ok = false // a failed check; the result file is still there to compare
		}
		if files[i], err = readResultFile(path); err != nil {
			return false, err
		}
	}
	cs, err := compareFiles(spec, files[0], files[1])
	if err != nil {
		return false, err
	}
	// Two runs of one program: a difference in either direction beyond
	// the bound means the bound cannot resolve a change.
	for i := range cs {
		cs[i].Worse = math.Abs(cs[i].Worse)
		cs[i].OK = cs[i].Worse <= cs[i].Bound
	}
	if err := writeJSON(filepath.Join(outDir, "repeat.json"), cs); err != nil {
		return false, err
	}
	return printComparisons(stdout, cs) && ok, nil
}

// runWorkload measures one workload; fid is the same for every one.
func runWorkload(ctx context.Context, name string, cfg runConfig, fid *fidelity) (*workloadResult, error) {
	var res *workloadResult
	var err error
	switch name {
	case "hot-repeat", "novel-stream", "batch-mixed":
		res, err = runServing(ctx, name, cfg, fid)
	case "cold-start":
		res, err = runColdStart(ctx, cfg, fid)
	default:
		err = fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.finish()
	return res, nil
}

// runSuite measures all four workloads, each on a fresh topology.
func runSuite(ctx context.Context, cfg runConfig, fid *fidelity, stdout io.Writer) (*resultFile, error) {
	f := &resultFile{Provenance: newProvenance(cfg.seed, cfg.window.Seconds())}
	for _, name := range workloadNames {
		res, err := runWorkload(ctx, name, cfg, fid)
		if err != nil {
			return nil, err
		}
		printResult(stdout, res)
		f.Workloads = append(f.Workloads, res)
	}
	fmt.Fprintf(stdout, "fidelity: %s tier against this repo's simulator at model seed %d; the paper reports %.2f%% end-to-end and %.2f%% active-time geomean error against hardware\n",
		fidelityTier, fidelityModelSeed, paperE2EErrPct, paperActiveErrPct)
	return f, nil
}
