package main

import "dlrmperf/internal/stats"

// metricDef names one metric and its unit. The two tables below are the
// harness's side of BENCHMARK.json: smoke_test.go fails when the file
// and these tables disagree on a name or a unit.
type metricDef struct{ Name, Unit string }

// endToEnd lists what a caller of the system sees. Every workload emits
// every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"heap_mb", "MB"},
	{"e2e_err_geomean_pct", "%"},
	{"active_err_geomean_pct", "%"},
}

// perLayer lists the single-layer metrics, grouped by the module they
// observe. README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{"client.calls", "count"},
	{"client.errors", "count"},
	{"client.self_us_p50", "us"},
	{"client.req_bytes_per_op", "B"},
	{"client.resp_bytes_per_op", "B"},
	{"http.front_us_p50", "us"},

	{"cluster.handler_calls", "count"},
	{"cluster.self_us_p50", "us"},
	{"cluster.cache_us_p50", "us"},
	{"cluster.local_hit_share", "share"},
	{"cluster.forwards_per_op", "1/op"},
	{"cluster.hop_conns_per_op", "1/op"},
	{"cluster.hop_us_p50", "us"},
	{"cluster.hop_req_bytes_per_op", "B"},
	{"cluster.hop_resp_bytes_per_op", "B"},
	{"cluster.worker_failed", "count"},
	{"cluster.route_imbalance", "share"},

	{"serve.handler_calls", "count"},
	{"serve.self_us_p50", "us"},
	{"serve.queue_wait_us_p50", "us"},
	{"serve.queue_wait_us_p90", "us"},
	{"serve.queue_peak_depth", "count"},
	{"serve.rows_per_call", "1/call"},
	{"serve.rejected", "count"},
	{"serve.codec_us_per_row", "us"},

	{"engine.calls", "count"},
	{"engine.self_us_p50", "us"},
	{"engine.miss_us_p50", "us"},
	{"engine.hit_us_p50", "us"},
	{"engine.result_hit_share", "share"},
	{"engine.plans.hit_share", "share"},
	{"engine.graphs.hit_share", "share"},
	{"engine.runs.hit_share", "share"},
	{"engine.overheads.hit_share", "share"},
	{"engine.plans.evictions", "count"},
	{"engine.graphs.evictions", "count"},
	{"engine.results.evictions", "count"},
	{"engine.resident_mb", "MB"},
	{"engine.calibrations.runs", "count"},
	{"engine.handoff_ms_p50", "ms"},

	{"scenario.resolve_us_p50", "us"},
	{"scenario.plan_shards_us_p50", "us"},

	{"predict.walk_us_p50.dlrm", "us"},
	{"predict.walk_us_p50.cnn", "us"},
	{"predict.walk_us_p50.transformer", "us"},
	{"predict.e2e_err_pct.dlrm", "%"},
	{"predict.e2e_err_pct.cnn", "%"},
	{"predict.e2e_err_pct.transformer", "%"},
	{"predict.shared_e2e_err_geomean_pct", "%"},

	{"perfmodel.calibrate_ms_p50", "ms"},
	{"perfmodel.kernel_gmae_pct_max", "%"},
	{"overhead.collect_ms_p50.dlrm", "ms"},
	{"overhead.collect_ms_p50.cnn", "ms"},
	{"overhead.collect_ms_p50.transformer", "ms"},
	{"sim.measure_ms_p50", "ms"},

	{"process.allocs_per_op", "1/op"},
	{"process.alloc_kb_per_op", "kB"},
	{"process.cpu_us_per_op", "us"},
	{"process.gc_pause_ms", "ms"},
	{"process.gc_cycles", "count"},
	{"host.steal_share", "share"},

	{"loadgen.ops_attempted", "count"},
	{"loadgen.ops_failed", "count"},
	{"loadgen.self_us_p50", "us"},
	{"loadgen.latency_p99_us", "us"},
	{"loadgen.traced_latency_p50_us", "us"},
	{"loadgen.self_rows_sum_share", "share"},
	{"loadgen.trace_overhead_share", "share"},
}

// metric is one measured value with its unit, as the result line and
// the result file carry it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against one of the tables above. A metric
// that a workload does not exercise stays 0.
type metricSet struct {
	defs []metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]float64, len(defs))}
}

// set records a value. An unknown name is a bug in the harness.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.vals[name] = v
			return
		}
	}
	panic("bench: metric " + name + " is not in the metric table")
}

// export renders every metric of the table, in table order for printing
// and as a map for JSON.
func (m *metricSet) export() map[string]metric {
	out := make(map[string]metric, len(m.defs))
	for _, d := range m.defs {
		out[d.Name] = metric{Value: m.vals[d.Name], Unit: d.Unit}
	}
	return out
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks, 0 when there are no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, 100*q)
}

// share is num/den, 0 when nothing was counted.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
