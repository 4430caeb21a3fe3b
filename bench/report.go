package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// checks collects what a run found wrong. Any entry makes the run
// incorrect and the command exit non-zero.
type checks struct {
	nfail    int
	failures []string
}

// maxFailures messages are kept: enough to diagnose, and a broken run
// can fail every operation.
const maxFailures = 12

func (c *checks) failf(format string, args ...any) {
	c.nfail++
	if len(c.failures) < maxFailures {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func (c *checks) merge(o checks) {
	c.nfail += o.nfail
	if room := maxFailures - len(c.failures); room < len(o.failures) {
		o.failures = o.failures[:room]
	}
	c.failures = append(c.failures, o.failures...)
}

// workloadResult is one workload of one run.
type workloadResult struct {
	Workload string `json:"workload"`
	// Correct is false when an operation failed or a check did not hold.
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// Samples is the number of latencies behind the quantiles.
	Samples      int               `json:"samples"`
	StreamDigest string            `json:"stream_digest"`
	Failures     []string          `json:"failures,omitempty"`
	EndToEnd     map[string]metric `json:"end_to_end"`
	PerLayer     map[string]metric `json:"per_layer,omitempty"`
	checks
}

func (r *workloadResult) finish() {
	r.Correct = r.Failed == 0 && r.nfail == 0
	r.Failures = r.failures
}

// provenance says what produced a result file. Times from machines of
// different shape do not compare; compareFiles refuses them.
type provenance struct {
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"nproc"`
	CPUModel      string  `json:"cpu_model"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	Seed          uint64  `json:"seed"`
	WindowSeconds float64 `json:"window_seconds"`
	Clients       int     `json:"clients"`
	FidelityTier  string  `json:"fidelity_tier"`
	FidelitySeed  uint64  `json:"fidelity_model_seed"`
}

func newProvenance(seed uint64, windowSeconds float64) provenance {
	p := provenance{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", GoVersion: runtime.Version(), Commit: "unknown",
		Seed: seed, WindowSeconds: windowSeconds, Clients: numClients,
		FidelityTier: fidelityTier, FidelitySeed: fidelityModelSeed,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	return p
}

// resultFile is what suite mode writes.
type resultFile struct {
	Provenance provenance        `json:"provenance"`
	Workloads  []*workloadResult `json:"workloads"`
}

func (f *resultFile) workload(name string) *workloadResult {
	for _, w := range f.Workloads {
		if w.Workload == name {
			return w
		}
	}
	return nil
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printMetrics prints every metric of a table by name, value and unit.
func printMetrics(w io.Writer, workload string, defs []metricDef, vals map[string]metric) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-14s %-38s %16.4f %s\n", workload, d.Name, vals[d.Name].Value, d.Unit)
	}
}

func printResult(w io.Writer, r *workloadResult) {
	printMetrics(w, r.Workload, endToEnd, r.EndToEnd)
	if r.PerLayer != nil {
		printMetrics(w, r.Workload, perLayer, r.PerLayer)
	}
	fmt.Fprintf(w, "%-14s attempted %d, failed %d, latency samples %d, stream %s, correct %v\n",
		r.Workload, r.Attempted, r.Failed, r.Samples, r.StreamDigest, r.Correct)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%-14s FAILED CHECK: %s\n", r.Workload, f)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the harness reads: the
// bounds, and the names the smoke test holds the harness to.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// comparison is one end-to-end metric of one workload in two runs.
type comparison struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Old      float64 `json:"old"`
	New      float64 `json:"new"`
	// Worse is how far New is on the wrong side of Old, as a share of
	// Old (negative when it is better).
	Worse float64 `json:"worse"`
	Bound float64 `json:"bound"`
	OK    bool    `json:"ok"`
}

// compareFiles judges every end-to-end metric of every workload of b
// against a by the bounds in BENCHMARK.json. It refuses two files whose
// GOMAXPROCS differ: their times say nothing about each other.
func compareFiles(spec *benchmarkSpec, a, b *resultFile) ([]comparison, error) {
	if a.Provenance.GOMAXPROCS != b.Provenance.GOMAXPROCS {
		return nil, fmt.Errorf("refusing to compare: GOMAXPROCS %d against %d", a.Provenance.GOMAXPROCS, b.Provenance.GOMAXPROCS)
	}
	var out []comparison
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Workload)
		if wb == nil {
			return nil, fmt.Errorf("workload %s is missing from the second file", wa.Workload)
		}
		for _, m := range spec.EndToEnd {
			c := comparison{Workload: wa.Workload, Metric: m.Name, Old: wa.EndToEnd[m.Name].Value, New: wb.EndToEnd[m.Name].Value, Bound: m.Bound}
			c.Worse = share(c.New-c.Old, c.Old)
			if m.Better == "higher" {
				c.Worse = -c.Worse
			}
			c.OK = c.Worse <= c.Bound
			out = append(out, c)
		}
	}
	return out, nil
}

func printComparisons(w io.Writer, cs []comparison) (ok bool) {
	ok = true
	fmt.Fprintf(w, "%-14s %-24s %14s %14s %9s %7s\n", "workload", "metric", "old", "new", "worse", "bound")
	for _, c := range cs {
		verdict := ""
		if !c.OK {
			verdict, ok = "  REGRESSED", false
		}
		fmt.Fprintf(w, "%-14s %-24s %14.4f %14.4f %+8.2f%% %6.1f%%%s\n", c.Workload, c.Metric, c.Old, c.New, 100*c.Worse, 100*c.Bound, verdict)
	}
	return ok
}

// layerWork says what each row of the per-layer cost table pays for. The
// rows are the self-time metrics in path order, which sum to the traced
// end-to-end p50.
var layerWork = [numLayers]string{
	layerClient:  "internal/client: encode the request, decode the response",
	layerFront:   "front socket: net/http client and server, loopback TCP",
	layerCluster: "internal/cluster handler: decode, fan out, assemble and encode the response",
	layerCache:   "coordinator pass-through cache: key, lookup, singleflight",
	layerHop:     "coordinator to worker: route, hop client codec, hop socket",
	layerServe:   "internal/serve handler: decode, admit, queue, hand off, encode",
	layerEngine:  "worker engine: result cache, plan compile, Algorithm-1 walk",
}

// writeBudget renders the per-layer cost table of every serving
// workload as Markdown: the table README.md carries.
func writeBudget(w io.Writer, f *resultFile) {
	for _, r := range f.Workloads {
		if r.PerLayer == nil || r.Workload == "cold-start" {
			continue
		}
		p50 := r.PerLayer["loadgen.traced_latency_p50_us"].Value
		unit := "request"
		if r.Workload == "batch-mixed" {
			unit = fmt.Sprintf("call of %d rows", batchRows)
		}
		fmt.Fprintf(w, "\n#### `%s` (per %s)\n\n| layer | self time µs (p50) | share of traced p50 | what it is |\n|---|---:|---:|---|\n", r.Workload, unit)
		sum := 0.0
		for l, name := range selfTimeMetrics {
			v := r.PerLayer[name].Value
			sum += v
			fmt.Fprintf(w, "| `%s` | %.1f | %.1f%% | %s |\n", name, v, 100*share(v, p50), layerWork[l])
		}
		fmt.Fprintf(w, "| **sum of rows** | **%.1f** | **%.1f%%** | traced end-to-end p50 is %.1f µs; untraced p50 in the timed window is %.1f µs |\n",
			sum, 100*share(sum, p50), p50, r.EndToEnd["latency_p50_us"].Value)
		fmt.Fprintf(w, "\nPer operation: %.0f allocations, %.1f kB allocated, %.1f µs of CPU (whole process, load generator included); "+
			"%.0f B request and %.0f B response on the front socket, %.0f B and %.0f B on the hop; "+
			"tracing costs %+.1f%% of p50; engine hit path %.2f µs.\n",
			r.PerLayer["process.allocs_per_op"].Value, r.PerLayer["process.alloc_kb_per_op"].Value, r.PerLayer["process.cpu_us_per_op"].Value,
			r.PerLayer["client.req_bytes_per_op"].Value, r.PerLayer["client.resp_bytes_per_op"].Value,
			r.PerLayer["cluster.hop_req_bytes_per_op"].Value, r.PerLayer["cluster.hop_resp_bytes_per_op"].Value,
			100*r.PerLayer["loadgen.trace_overhead_share"].Value, r.PerLayer["engine.hit_us_p50"].Value)
	}
}
