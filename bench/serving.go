package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"dlrmperf"
	"dlrmperf/internal/cluster"
	"dlrmperf/internal/models"
	"dlrmperf/internal/scenario"
	"dlrmperf/internal/serve"
	"dlrmperf/internal/xsync"
)

// runConfig is what one workload run is given.
type runConfig struct {
	seed   uint64
	window time.Duration
	// traced adds the harness's wrappers and the traced pass, and fills
	// the per-layer metrics. The timed window runs untraced either way.
	traced bool
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
	// outDir receives trace-<workload>.json ("" writes nothing).
	outDir string
}

// Fixed sizes, in calls per client. The warm-up runs the same loop
// unmeasured until the caches are in their steady state, which for
// novel-stream and batch-mixed means every LRU is full and evicting:
// the smaller worker sees over 512 distinct specs in this many calls.
// The traced pass makes its calls untraced and then traced, with one
// client, after the timed window.
var (
	warmCalls   = map[string]int{"hot-repeat": 2000, "novel-stream": 1000, "batch-mixed": 100}
	tracedCalls = map[string]int{"hot-repeat": 4000, "novel-stream": 1500, "batch-mixed": 40}
)

// answerSample bounds how many distinct specs of one run are checked
// against the reference engine; each costs a cold prediction there.
const answerSample = 2048

type answer struct{ e2e, active float64 }

// clientLog is what one closed-loop client saw.
type clientLog struct {
	calls, ops, failed, errors int
	latUs, selfUs, queueUs     []float64
	doneAt                     []time.Duration // completion of each call, from the phase's start
	answers                    map[serve.Request]answer
	order                      []serve.Request
	checks
}

// record checks the rows of one call: a refused, errored, mis-addressed
// or changed answer is a failed operation.
func (l *clientLog) record(reqs []serve.Request, rows []serve.Result, err error) {
	l.calls++
	l.ops += len(reqs)
	if err == nil && len(rows) != len(reqs) {
		err = fmt.Errorf("%d rows for %d requests", len(rows), len(reqs))
	}
	if err != nil {
		l.errors++
		l.failed += len(reqs)
		l.failf("call failed: %v", err)
		return
	}
	for i, row := range rows {
		switch {
		case row.Error != "":
			l.failed++
			l.failf("%+v: %s", reqs[i], row.Error)
			continue
		case row.Request != reqs[i] || !(row.E2EUs > 0) || !(row.ActiveUs > 0):
			l.failed++
			l.failf("%+v: malformed row %+v", reqs[i], row)
			continue
		}
		id, got := identity(reqs[i]), answer{row.E2EUs, row.ActiveUs}
		if prev, seen := l.answers[id]; !seen {
			l.answers[id] = got
			l.order = append(l.order, id)
		} else if prev != got {
			l.failed++
			l.failf("%+v: answer changed from %v to %v", id, prev, got)
		}
		if !row.CacheHit {
			// A computed row carries its own queue wait; a cached one
			// carries the wait of the request that first fetched it.
			l.queueUs = append(l.queueUs, float64(row.QueueWaitUs))
		}
	}
}

// phaseLog is one phase of the loop, all clients merged.
type phaseLog struct {
	clientLog
	elapsed time.Duration
	// slices are the seconds of a timed phase with the share of the CPU
	// time the host left the guest in each; nil for a counted phase.
	slices []slice
}

// servingRun is one serving workload on one topology.
type servingRun struct {
	name    string
	top     *topology
	tr      *tracer
	streams []stream
}

func (r *servingRun) call(ctx context.Context, reqs []serve.Request) ([]serve.Result, error) {
	if r.name == "batch-mixed" {
		var rep cluster.Report
		err := r.top.front.PredictBatchInto(ctx, reqs, &rep)
		return rep.Results, err
	}
	row, err := r.top.front.Predict(ctx, reqs[0])
	return []serve.Result{row}, err
}

// phase runs the closed loop on the first `clients` streams: for d, or
// for exactly `calls` calls per client when calls > 0. Each client
// sends its next call only after the previous one has been answered,
// as the planners and sweeps that call this system do.
func (r *servingRun) phase(ctx context.Context, d time.Duration, calls, clients int, traced bool) *phaseLog {
	logs := make([]*clientLog, clients)
	start := time.Now()
	deadline := start.Add(d)
	var meter *stealMeter
	if calls == 0 {
		meter = startStealMeter(start)
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &clientLog{answers: map[serve.Request]answer{}}
			logs[c] = l
			for n := 0; ; n++ {
				t0 := time.Now()
				if calls > 0 && n >= calls || calls == 0 && !t0.Before(deadline) {
					return
				}
				reqs := r.streams[c].next()
				cctx, sp := ctx, (*open)(nil)
				if traced {
					cctx, sp = r.tr.root(ctx)
				}
				t1 := time.Now()
				rows, err := r.call(cctx, reqs)
				t2 := time.Now()
				if sp != nil {
					sp.end()
				}
				l.record(reqs, rows, err)
				l.latUs = append(l.latUs, float64(t2.Sub(t1))/1e3)
				l.doneAt = append(l.doneAt, t2.Sub(start))
				l.selfUs = append(l.selfUs, float64(t1.Sub(t0)+time.Since(t2))/1e3)
			}
		}(c)
	}
	wg.Wait()
	p := &phaseLog{elapsed: time.Since(start)}
	if meter != nil {
		p.slices = meter.finish()
	}
	p.answers = map[serve.Request]answer{}
	for _, l := range logs {
		p.calls += l.calls
		p.ops += l.ops
		p.failed += l.failed
		p.errors += l.errors
		p.latUs = append(p.latUs, l.latUs...)
		p.selfUs = append(p.selfUs, l.selfUs...)
		p.queueUs = append(p.queueUs, l.queueUs...)
		p.doneAt = append(p.doneAt, l.doneAt...)
		p.merge(l.checks)
		for _, id := range l.order {
			if prev, seen := p.answers[id]; !seen {
				p.answers[id] = l.answers[id]
				p.order = append(p.order, id)
			} else if prev != l.answers[id] {
				p.failed++
				p.failf("%+v: clients were answered %v and %v", id, prev, l.answers[id])
			}
		}
	}
	return p
}

// quietShare is the part of a window's whole seconds its figures are
// taken from: the ones in which the host stole the least. Steal comes in
// bursts of a few seconds; a burst of 25% cuts that second's throughput
// by a third and nearly doubles its p90 while its p50 hardly moves, so
// no factor corrects for it. Leaving those seconds out does.
const (
	quietShare = 0.5
	minQuiet   = 5
)

// quietSlices picks the window's quietest whole seconds, by index into
// p.slices. The stub of a second that ends the window never counts. A
// window too short to hold a whole second gives nil: every sample counts.
func (p *phaseLog) quietSlices() []int {
	var whole []int
	for i, sl := range p.slices {
		if sl.to-sl.from >= time.Second/2 {
			whole = append(whole, i)
		}
	}
	sort.SliceStable(whole, func(a, b int) bool { return p.slices[whole[a]].unstolen > p.slices[whole[b]].unstolen })
	keep := int(quietShare * float64(len(whole)))
	if keep < minQuiet {
		keep = minQuiet
	}
	if keep > len(whole) {
		keep = len(whole)
	}
	return whole[:keep]
}

// unstolen is the share of the CPU time the guest wanted during the
// whole phase that it got.
func (p *phaseLog) unstolen() float64 {
	var wall, got float64
	for _, sl := range p.slices {
		wall += (sl.to - sl.from).Seconds()
		got += (sl.to - sl.from).Seconds() * sl.unstolen
	}
	return share(got, wall)
}

// windowStats is what the metrics need of the timed window.
type windowStats struct {
	calls, ops, failed, errors                          int
	opsPerSecond, stealShare                            float64
	latP50, latP90, latP99, selfP50, queueP50, queueP90 float64
}

// summarize reduces the window to its figures. Throughput is the median
// over the quiet seconds of the operations completed in each, per second
// the host did not steal (what little it stole there does scale
// throughput one for one); the latency quantiles pool the calls that
// ended in a quiet second, as measured.
func (p *phaseLog) summarize() windowStats {
	w := windowStats{
		calls: p.calls, ops: p.ops, failed: p.failed, errors: p.errors,
		stealShare: 1 - p.unstolen(),
		selfP50:    quantile(p.selfUs, 0.5),
		queueP50:   quantile(p.queueUs, 0.5), queueP90: quantile(p.queueUs, 0.9),
	}
	lat := p.latUs
	w.opsPerSecond = float64(p.ops) / p.elapsed.Seconds() / p.unstolen()
	if quiet := p.quietSlices(); len(quiet) > 0 {
		isQuiet := make([]bool, len(p.slices))
		for _, i := range quiet {
			isQuiet[i] = true
		}
		perCall := float64(p.ops) / float64(p.calls) // rows per call: 1, or the batch size
		done := make([]float64, len(p.slices))
		lat = nil
		for n, at := range p.doneAt {
			if i := sliceAt(p.slices, at); i >= 0 && isQuiet[i] {
				done[i] += perCall
				lat = append(lat, p.latUs[n])
			}
		}
		rates := make([]float64, 0, len(quiet))
		for _, i := range quiet {
			sl := p.slices[i]
			rates = append(rates, done[i]/(sl.to-sl.from).Seconds()/sl.unstolen)
		}
		w.opsPerSecond = quantile(rates, 0.5)
	}
	w.latP50, w.latP90, w.latP99 = quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99)
	return w
}

// served is one distinct spec of the window and the answer it got.
type served struct {
	req serve.Request
	got answer
}

// answerSampleOf picks the specs whose answers are checked: every
// distinct one, or an even sample when there are more than answerSample.
func (p *phaseLog) answerSampleOf() []served {
	stride := (len(p.order) + answerSample - 1) / answerSample
	if stride < 1 {
		stride = 1
	}
	var out []served
	for i := 0; i < len(p.order); i += stride {
		out = append(out, served{p.order[i], p.answers[p.order[i]]})
	}
	return out
}

// checkAnswers compares served answers bit for bit with the reference
// engine and returns the number of wrong ones.
func (r *servingRun) checkAnswers(sample []served, c *checks) int {
	wrong := make([]string, len(sample))
	xsync.ForEachN(len(sample), numClients, func(i int) {
		res := r.top.ref.Predict(sample[i].req.ToPredict())
		want := answer{res.Prediction.E2EUs, res.Prediction.ActiveUs}
		if res.Err != nil || sample[i].got != want {
			wrong[i] = fmt.Sprintf("%+v: served %v, reference %v (err %v)", sample[i].req, sample[i].got, want, res.Err)
		}
	})
	bad := 0
	for _, w := range wrong {
		if w != "" {
			bad++
			c.failf("wrong answer: %s", w)
		}
	}
	return bad
}

// counters is a snapshot of everything the harness reads from public
// stats and from the process, taken at quiescence.
type counters struct {
	agg      cluster.Stats
	cache    dlrmperf.AssetStats
	calRuns  int
	hopConns uint64 // connections the workers' listeners accepted
	mem      runtime.MemStats
	cpu      time.Duration
	handlers [3]uint64 // cluster, serve, engine calls seen by the wrappers
}

func (r *servingRun) snapshot(ctx context.Context) (counters, error) {
	var c counters
	// The coordinator's GET /stats fetches and merges every worker's.
	if err := r.top.front.StatsInto(ctx, &c.agg); err != nil {
		return c, fmt.Errorf("coordinator /stats: %w", err)
	}
	c.cache = r.top.cacheEng.AssetStats()
	for _, w := range r.top.workers {
		c.hopConns += w.ln.accepted.Load()
		for _, d := range dlrmperf.Devices() {
			c.calRuns += w.eng.CalibrationRuns(d)
		}
	}
	if r.tr != nil {
		c.handlers = [3]uint64{r.tr.clusterCalls.Load(), r.tr.serveCalls.Load(), r.tr.engineCalls.Load()}
	}
	runtime.ReadMemStats(&c.mem)
	c.cpu = cpuTime()
	return c, nil
}

// cpuTime is the user plus system CPU time of this process so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// workerTotals sums what the two workers report.
type workerTotals struct {
	requests, hits, misses, rejected, routed uint64
	routedBy                                 []float64
	peakDepth                                int64
}

func totals(agg cluster.Stats) workerTotals {
	var t workerTotals
	for _, ws := range agg.Workers {
		t.routed += ws.Routed
		t.routedBy = append(t.routedBy, float64(ws.Routed))
		if ws.Stats == nil {
			continue
		}
		t.requests += ws.Stats.Requests
		t.hits += ws.Stats.Cache.Hits
		t.misses += ws.Stats.Cache.Misses
		t.rejected += ws.Stats.Rejected.Total()
		if ws.Stats.Queue.PeakDepth > t.peakDepth {
			t.peakDepth = ws.Stats.Queue.PeakDepth
		}
	}
	return t
}

// checkIdentities asserts hits + misses + rejected == requests on the
// coordinator's aggregated /stats and on each worker, at quiescence.
func checkIdentities(agg cluster.Stats, c *checks) {
	if agg.Accounted() != agg.Requests {
		c.failf("coordinator /stats: accounted %d != requests %d", agg.Accounted(), agg.Requests)
	}
	for _, ws := range agg.Workers {
		if ws.Stats == nil {
			c.failf("worker %s: no /stats: %s", ws.ID, ws.StatsError)
		} else if ws.Stats.Accounted() != ws.Stats.Requests {
			c.failf("worker %s /stats: accounted %d != requests %d", ws.ID, ws.Stats.Accounted(), ws.Stats.Requests)
		}
	}
}

// windowDelta is what the public stats say happened inside the timed
// window: the difference of the two snapshots around it.
type windowDelta struct {
	before, after counters
	bt, at        workerTotals
	localHits     float64 // share of the coordinator's requests answered from its cache
	forwards      float64 // routing attempts per operation
}

func delta(before, after counters, ops int) windowDelta {
	d := windowDelta{before: before, after: after, bt: totals(before.agg), at: totals(after.agg)}
	bc, ac := before.agg.Coordinator, after.agg.Coordinator
	d.localHits = share(float64(ac.LocalCacheHits-bc.LocalCacheHits), float64(ac.Received-bc.Received))
	d.forwards = share(float64(d.at.routed-d.bt.routed), float64(ops))
	return d
}

func (d *windowDelta) evictions(class string) float64 {
	return float64(d.after.agg.Assets.Class(class).Evictions - d.before.agg.Assets.Class(class).Evictions)
}

// hitShare is an asset class's hits over its lookups inside the window.
func (d *windowDelta) hitShare(class string) float64 {
	b, a := d.before.agg.Assets.Class(class), d.after.agg.Assets.Class(class)
	return share(float64(a.Hits-b.Hits), float64(a.Hits-b.Hits+a.Misses-b.Misses))
}

// checkDesign asserts that the window used the layers the workload
// exists to use, and that nothing calibrated inside it.
func (r *servingRun) checkDesign(d *windowDelta, c *checks) {
	reachedWorkers := d.at.requests - d.bt.requests
	switch r.name {
	case "hot-repeat":
		if d.localHits < 0.99 || reachedWorkers != 0 {
			c.failf("hot-repeat: local hit share %.4f, %d requests reached a worker", d.localHits, reachedWorkers)
		}
	case "novel-stream":
		if d.localHits > 0.01 || d.forwards < 0.99 || d.evictions("results") == 0 {
			c.failf("novel-stream: local hit share %.4f, forwards per op %.4f, result evictions %.0f", d.localHits, d.forwards, d.evictions("results"))
		}
	case "batch-mixed":
		if d.evictions("results") == 0 {
			c.failf("batch-mixed: the workers' result caches never evicted")
		}
	}
	if n := d.after.calRuns - d.before.calRuns; n != 0 {
		c.failf("%d calibrations ran inside the window", n)
	}
	for _, dev := range dlrmperf.Devices() {
		if r.top.ref.CalibrationRuns(dev) != 0 {
			c.failf("reference engine calibrated %s itself", dev)
		}
	}
}

// setUp builds the topology: from the first constructor call to a
// calibrated system with the hot pool resident. It is repeated, and the
// last topology kept, so that setup_s is a median.
func setUp(ctx context.Context, name string, cfg runConfig, tr *tracer) (*topology, []float64, error) {
	var top *topology
	var setups []float64
	for i := 0; i < cfg.setupReps; i++ {
		if top != nil {
			top.close()
			top = nil
			runtime.GC() // each set-up starts from the same heap
		}
		t0, ticks0 := time.Now(), readCPUTicks()
		var err error
		if top, err = newTopology(ctx, cfg.seed, tr); err != nil {
			return nil, nil, err
		}
		if name == "hot-repeat" {
			pool := dlrmPool(cfg.seed, hotPoolSize)
			xsync.ForEachN(len(pool), numClients, func(i int) {
				_, _ = top.front.Predict(ctx, pool[i]) // a failure here shows as a miss inside the window
			})
		}
		setups = append(setups, time.Since(t0).Seconds()*unstolen(ticks0, readCPUTicks()))
	}
	return top, setups, nil
}

// runServing measures one of the three serving workloads.
func runServing(ctx context.Context, name string, cfg runConfig, fid *fidelity) (*workloadResult, error) {
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	top, setups, err := setUp(ctx, name, cfg, tr)
	if err != nil {
		return nil, err
	}
	defer top.close()
	r := &servingRun{name: name, top: top, tr: tr}
	for c := 0; c < numClients; c++ {
		r.streams = append(r.streams, newStream(name, cfg.seed, c))
	}
	res := &workloadResult{Workload: name, StreamDigest: streamDigest(name, cfg.seed)}

	r.phase(ctx, 0, warmCalls[name], numClients, false)

	runtime.GC() // every window starts at the same point of the collector's cycle
	before, err := r.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	log := r.phase(ctx, cfg.window, 0, numClients, false)
	after, err := r.snapshot(ctx)
	if err != nil {
		return nil, err
	}

	// The window's samples are the harness's memory, and there are more
	// of them the faster the system is: they are summarized and dropped
	// before the live heap is read.
	win, sample := log.summarize(), log.answerSampleOf()
	res.checks = log.checks
	log = nil
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	// Checks, all outside the window.
	wrong := r.checkAnswers(sample, &res.checks)
	checkIdentities(after.agg, &res.checks)
	d := delta(before, after, win.ops)
	r.checkDesign(&d, &res.checks)
	res.Attempted, res.Failed, res.Samples = win.ops, win.failed+wrong, win.calls

	e2e := newMetricSet(endToEnd)
	e2e.set("setup_s", quantile(setups, 0.5))
	e2e.set("ops_per_s", win.opsPerSecond)
	e2e.set("latency_p50_us", win.latP50)
	e2e.set("latency_p90_us", win.latP90)
	e2e.set("heap_mb", float64(live.HeapAlloc)/1e6)
	fid.endToEnd(e2e)
	res.EndToEnd = e2e.export()
	if !cfg.traced {
		return res, nil
	}

	pl := newMetricSet(perLayer)
	windowLayers(pl, &d, win)
	pl.set("loadgen.ops_attempted", float64(res.Attempted))
	pl.set("loadgen.ops_failed", float64(res.Failed))
	if err := r.tracedPass(ctx, pl, &res.checks, cfg.outDir); err != nil {
		return nil, err
	}
	r.directTimings(pl, cfg.seed)
	fid.perLayer(pl)
	res.PerLayer = pl.export()
	return res, nil
}

// windowLayers fills the per-layer counts and shares of the timed window.
func windowLayers(pl *metricSet, d *windowDelta, win windowStats) {
	before, after, bt, at := d.before, d.after, d.bt, d.at
	ops := float64(win.ops)
	pl.set("client.calls", float64(win.calls))
	pl.set("client.errors", float64(win.errors))
	pl.set("cluster.handler_calls", float64(after.handlers[0]-before.handlers[0]))
	pl.set("cluster.local_hit_share", d.localHits)
	pl.set("cluster.forwards_per_op", d.forwards)
	pl.set("cluster.hop_conns_per_op", float64(after.hopConns-before.hopConns)/ops)
	pl.set("cluster.worker_failed", float64(after.agg.Rejected.WorkerFailed-before.agg.Rejected.WorkerFailed))
	var routedMax, routedSum float64
	for i := range at.routedBy {
		n := at.routedBy[i] - bt.routedBy[i]
		routedSum += n
		if n > routedMax {
			routedMax = n
		}
	}
	if routedSum > 0 {
		pl.set("cluster.route_imbalance", routedMax/(routedSum/float64(len(at.routedBy)))-1)
	}
	serveCalls := float64(after.handlers[1] - before.handlers[1])
	pl.set("serve.handler_calls", serveCalls)
	pl.set("serve.rows_per_call", share(float64(at.requests-bt.requests), serveCalls))
	pl.set("serve.queue_wait_us_p50", win.queueP50)
	pl.set("serve.queue_wait_us_p90", win.queueP90)
	pl.set("serve.queue_peak_depth", float64(at.peakDepth))
	pl.set("serve.rejected", float64(at.rejected-bt.rejected))
	pl.set("engine.calls", float64(after.handlers[2]-before.handlers[2]))
	pl.set("engine.result_hit_share", share(float64(at.hits-bt.hits), float64(at.hits-bt.hits+at.misses-bt.misses)))
	for _, class := range []string{"plans", "graphs", "runs", "overheads"} {
		pl.set("engine."+class+".hit_share", d.hitShare(class))
	}
	for _, class := range []string{"plans", "graphs", "results"} {
		pl.set("engine."+class+".evictions", d.evictions(class))
	}
	pl.set("engine.resident_mb", float64(after.agg.Assets.TotalBytes+after.cache.TotalBytes)/1e6)
	pl.set("engine.calibrations.runs", float64(after.calRuns-before.calRuns))
	pl.set("process.allocs_per_op", float64(after.mem.Mallocs-before.mem.Mallocs)/ops)
	pl.set("process.alloc_kb_per_op", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1e3/ops)
	pl.set("process.cpu_us_per_op", float64(after.cpu-before.cpu)/1e3/ops)
	pl.set("process.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)
	pl.set("process.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC))
	pl.set("host.steal_share", win.stealShare)
	pl.set("loadgen.self_us_p50", win.selfP50)
	pl.set("loadgen.latency_p99_us", win.latP99)
}

// selfTimeMetrics are the self-time rows, in layer order.
var selfTimeMetrics = [numLayers]string{
	layerClient: "client.self_us_p50", layerFront: "http.front_us_p50",
	layerCluster: "cluster.self_us_p50", layerCache: "cluster.cache_us_p50", layerHop: "cluster.hop_us_p50",
	layerServe: "serve.self_us_p50", layerEngine: "engine.self_us_p50",
}

// tracedPass makes a fixed number of calls of the same stream with one
// client, untraced and then traced: the spans give the self-time rows,
// and the difference between the two passes is what tracing costs.
func (r *servingRun) tracedPass(ctx context.Context, pl *metricSet, c *checks, outDir string) error {
	calls := tracedCalls[r.name]
	plain := r.phase(ctx, 0, calls, 1, false)
	r.tr.on.Store(true)
	traced := r.phase(ctx, 0, calls, 1, true)
	r.tr.on.Store(false)
	spans := r.tr.take()
	if plain.failed+traced.failed > 0 {
		c.failf("traced pass: %d failed operations", plain.failed+traced.failed)
		c.merge(plain.checks)
		c.merge(traced.checks)
	}
	a := attribute(spans)
	tracedP50, rowsSum := quantile(a.total, 0.5), 0.0
	for l, v := range a.medianOp() {
		pl.set(selfTimeMetrics[l], v)
		rowsSum += v
	}
	pl.set("engine.miss_us_p50", quantile(a.engineMiss, 0.5))
	pl.set("loadgen.traced_latency_p50_us", tracedP50)
	pl.set("loadgen.self_rows_sum_share", share(rowsSum, tracedP50))
	pl.set("loadgen.trace_overhead_share", share(quantile(traced.latUs, 0.5), quantile(plain.latUs, 0.5))-1)
	ops := float64(traced.ops)
	pl.set("client.req_bytes_per_op", float64(r.tr.frontReq.Load())/ops)
	pl.set("client.resp_bytes_per_op", float64(r.tr.frontResp.Load())/ops)
	pl.set("cluster.hop_req_bytes_per_op", float64(r.tr.hopReq.Load())/ops)
	pl.set("cluster.hop_resp_bytes_per_op", float64(r.tr.hopResp.Load())/ops)
	if outDir == "" {
		return nil
	}
	return writeTrace(filepath.Join(outDir, "trace-"+r.name+".json"), spans)
}

// sink keeps the compiler from discarding a timed call's result.
var sink scenario.Spec

// medianCallUs times fn in batches, because one call can be shorter
// than the clock's resolution, and returns the median time per call.
func medianCallUs(batches, perBatch int, fn func(i int)) float64 {
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < perBatch; i++ {
			fn(b*perBatch + i)
		}
		per[b] = float64(time.Since(t0)) / 1e3 / float64(perBatch)
	}
	return quantile(per, 0.5)
}

// discardResponse is a ResponseWriter that keeps nothing.
type discardResponse struct{ h http.Header }

func (d discardResponse) Header() http.Header       { return d.h }
func (discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (discardResponse) WriteHeader(int)             {}

// directTimings fills the rows that come from timing calls into public
// functions, rather than from spans: they are too short, or too deep
// inside the engine, to have a seam of their own.
func (r *servingRun) directTimings(pl *metricSet, seed uint64) {
	// A resident result in the reference engine: the hit path.
	hot := firstTouches()[0].ToPredict()
	r.top.ref.Predict(hot)
	pl.set("engine.hit_us_p50", medianCallUs(50, 200, func(int) { r.top.ref.Predict(hot) }))

	// Resolving a wire request into the spec the engine executes.
	st := newStream(r.name, seed, 0)
	var reqs []dlrmperf.PredictRequest
	for len(reqs) < 256 {
		for _, q := range st.next() {
			reqs = append(reqs, q.ToPredict())
		}
	}
	pl.set("scenario.resolve_us_p50", medianCallUs(50, 200, func(i int) { sink, _ = reqs[i%len(reqs)].ResolveSpec() }))
	pl.set("scenario.plan_shards_us_p50", planShardsUs())

	// Decoding one row and assembling and encoding its response, by the
	// path the workload takes on a worker: a bare Result for a single
	// predict, a full Report for each one-row sub-batch of a batch.
	srv := r.top.workers[0].srv
	row := serve.Result{Request: firstTouches()[0], E2EUs: 1234.5, ActiveUs: 1000.25, CPUUs: 900.125, GPUsUsed: 1, ScalingEfficiency: 1}
	one, _ := json.Marshal(row.Request)
	many, _ := json.Marshal([]serve.Request{row.Request})
	w := discardResponse{h: http.Header{}}
	pl.set("serve.codec_us_per_row", medianCallUs(50, 20, func(int) {
		if r.name == "batch-mixed" {
			var in []serve.Request
			_ = json.Unmarshal(many, &in)
			serve.WriteJSON(w, http.StatusOK, srv.Report([]serve.Result{row}, time.Millisecond))
			return
		}
		var in serve.Request
		_ = json.Unmarshal(one, &in)
		serve.WriteJSON(w, http.StatusOK, row)
	}))
}

// planShardsUs times the greedy sharding planner on the table
// populations the DLRM families shard across 2 and 4 devices.
func planShardsUs() float64 {
	type job struct {
		cfg models.DLRMConfig
		n   int
	}
	var jobs []job
	for _, w := range dlrmFamilies {
		cfg, err := models.DLRMConfigFor(w, 2048)
		if err != nil {
			panic(err) // the three names are the package's own constants
		}
		jobs = append(jobs, job{cfg, 2}, job{cfg, 4})
	}
	return medianCallUs(50, 60, func(i int) {
		j := jobs[i%len(jobs)]
		_, _ = scenario.PlanShards(scenario.TablesOf(j.cfg), j.cfg.EmbDim, j.n)
	})
}
