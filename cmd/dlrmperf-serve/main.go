// Command dlrmperf-serve is the prediction service driver. It runs in
// three modes over the same serving pipeline (internal/serve +
// internal/cluster): a long-lived async HTTP server (optionally
// self-registering as a cluster worker), a cluster coordinator that
// shards traffic across such workers, and a one-shot runner.
//
//	dlrmperf-serve -listen :8080                   # HTTP service
//	dlrmperf-serve -in requests.json -o report.json # one-shot batch
//	dlrmperf-serve -in requests.json -assets v100.json,p100.json
//	dlrmperf-serve -gen 24 | dlrmperf-serve -save-assets assets/
//	dlrmperf-serve -in grid.json -fast-calib       # one-shot explore
//
// The one-shot job is chosen by the shape of the -in document: a JSON
// array is a request batch, written as the batch report plus a stats
// block; a JSON object is an explore grid, swept through the same
// admission pipeline POST /v1/explore uses (serve.Sweep: the MaxGrid
// bound, the grid's timeout_ms on every unit) and written as the report
// that endpoint returns (coverage, Pareto frontier, best configuration
// per workload).
//
//	dlrmperf-serve -coordinator -listen :9000       # cluster coordinator
//	dlrmperf-serve -listen :8081 -register http://host:9000  # worker
//
// A coordinator routes each request to a worker by rendezvous hashing
// on its device (one worker calibrates each device; its pinned assets
// stay hot), retries a dead worker once on the next-ranked candidate,
// re-exports the whole worker HTTP surface, and aggregates /stats
// cluster-wide. Workers join via -register (heartbeat self-
// registration) or the coordinator's -static-workers list. SIGTERM on
// the coordinator drains in-flight routes, then propagates the drain
// to the workers that registered with it.
//
// Both modes serve through one concurrent engine — each device
// calibrates at most once, lazily, and repeated scenarios are served
// from the engine's result cache — behind a bounded admission queue
// with backpressure. In HTTP mode the endpoints are:
//
//	POST /v1/predict        one request -> one result row; 429 + Retry-After when the queue is full
//	POST /v1/predict/batch  request list -> batch report (admission blocks instead of shedding)
//	POST /v1/explore        grid -> design-space sweep report
//	GET  /v1/scenarios      registered scenario names
//	GET  /healthz           liveness (503 while draining)
//	GET  /stats             admission/stream/cache/asset counters
//
// With -pprof the net/http/pprof surface is additionally mounted under
// /debug/pprof/ (worker and coordinator modes alike) for profiling a
// live serving process; it is never exposed without the flag.
//
// SIGTERM/SIGINT drain gracefully: in-flight requests finish, new
// admissions are rejected, and -save-assets (if set) re-saves every
// device holding a calibration before the process exits.
//
// The request schema is shared by the file fixture and both POST
// bodies; each entry names a built-in workload or a registered
// scenario, with an optional execution width and per-request deadline:
//
//	[
//	  {"workload": "DLRM_default", "batch": 2048, "device": "V100"},
//	  {"workload": "DLRM_MLPerf",  "batch": 1024, "device": "P100", "shared": true},
//	  {"scenario": "dlrm-criteo",  "batch": 2048, "device": "V100", "gpus": 4},
//	  {"scenario": "dlrm-uniform-2gpu", "device": "V100", "comm": "pcie", "timeout_ms": 500}
//	]
//
// Multi-GPU entries (gpus >= 2, or a *-Ngpu scenario) run the
// hybrid-parallel path: dense layers data-parallel, embedding tables
// sharded by the greedy planner, collectives priced by the named comm
// model.
//
// -gen N skips serving and instead writes a round-robin request list
// covering every workload and device, for smoke tests and benchmarks.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"dlrmperf"
	"dlrmperf/internal/cluster"
	"dlrmperf/internal/explore"
	"dlrmperf/internal/scenario"
	"dlrmperf/internal/serve"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dlrmperf-serve:", err)
	os.Exit(1)
}

func main() {
	in := flag.String("in", "-", "one-shot input path (- for stdin): a request array, or an explore grid object")
	out := flag.String("o", "-", "report JSON path (- for stdout)")
	seed := flag.Uint64("seed", 2022, "engine seed (a -coordinator neither calibrates nor simulates, so it has none)")
	workers := flag.Int("workers", 0, "engine worker pool size (0 = GOMAXPROCS)")
	assets := flag.String("assets", "", "comma-separated warm-start asset files from a previous -save-assets run")
	saveAssets := flag.String("save-assets", "", "directory to write per-device asset files after serving")
	gen := flag.Int("gen", 0, "instead of serving, emit N round-robin requests covering every workload and device")
	listScenarios := flag.Bool("scenarios", false, "list the registered scenarios with their descriptions and exit")
	listen := flag.String("listen", "", "serve HTTP on this address (e.g. :8080) instead of running a one-shot job")
	queueDepth := flag.Int("queue", 64, "admission queue depth; a full queue rejects POST /v1/predict with 429")
	streamWorkers := flag.Int("stream-workers", 0, "concurrent request executions (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "default per-request deadline (0 = none); a request's timeout_ms can only tighten it")
	tenantQueueCap := flag.Int("tenant-queue-cap", 0, "per-tenant share of the admission queue; a tenant over its cap is rejected tenant_limited (0 = half of -queue)")
	drainGrace := flag.Duration("drain-grace", 30*time.Second, "HTTP shutdown grace period after SIGTERM")
	fastCalib := flag.Bool("fast-calib", false, "low-fidelity calibration (eighth-size sweeps, tiny networks) for smoke tests and CI")
	coordinator := flag.Bool("coordinator", false, "run as a cluster coordinator on -listen, sharding requests across workers instead of serving an engine")
	staticWorkers := flag.String("static-workers", "", "comma-separated worker base URLs the coordinator always knows about (no heartbeat required)")
	peers := flag.String("peers", "", "comma-separated base URLs of the OTHER coordinators in a replicated control plane; enables the leader lease, registration forwarding, and result/asset gossip")
	register := flag.String("register", "", "comma-separated coordinator base URLs this worker self-registers (and heartbeats, and pushes calibration assets) with; also enables the worker's POST /v1/drain")
	advertise := flag.String("advertise", "", "base URL this worker advertises when registering (default http://<listen address>)")
	heartbeat := flag.Duration("heartbeat", 2*time.Second, "worker re-registration interval under -register")
	liveness := flag.Duration("liveness", cluster.DefaultLiveness, "coordinator liveness window: a registered worker missing heartbeats this long stops being routed to")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the HTTP listener (live profiling of a serving process)")
	flag.Parse()

	if *listScenarios {
		tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		for _, name := range scenario.Names() {
			g, _ := scenario.Lookup(name)
			fmt.Fprintf(tw, "%s\t%s\n", name, g.Description)
		}
		tw.Flush()
		return
	}
	if *gen > 0 {
		generate(*gen, *out)
		return
	}

	if *coordinator {
		if *listen == "" {
			fail(fmt.Errorf("-coordinator requires -listen"))
		}
		err := runCoordinator(coordinatorConfig{
			Addr:          *listen,
			StaticWorkers: splitPaths(*staticWorkers),
			Peers:         splitPaths(*peers),
			Advertise:     *advertise,
			Liveness:      *liveness,
			Heartbeat:     *heartbeat,
			DrainGrace:    *drainGrace,
			Pprof:         *pprofOn,
		})
		if err != nil {
			fail(err)
		}
		return
	}

	cfg := serveConfig{
		Engine:     engineConfig(*seed, *workers, *fastCalib),
		AssetPaths: splitPaths(*assets),
		SaveAssets: *saveAssets,
		Stream: serve.Config{
			QueueDepth:     *queueDepth,
			TenantQueueCap: *tenantQueueCap,
			Workers:        *streamWorkers,
			RequestTimeout: *timeout,
		},
		DrainGrace: *drainGrace,
		Register:   splitPaths(*register),
		Advertise:  *advertise,
		Heartbeat:  *heartbeat,
		Pprof:      *pprofOn,
	}

	if *listen != "" {
		if err := listenAndServe(cfg, *listen); err != nil {
			fail(err)
		}
		return
	}

	doc, runErr := runOneShot(cfg, *in)
	// The document is written even when post-serve work failed, so the
	// rows that did serve are never lost; the failure still reaches the
	// exit code below.
	if doc != nil {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := writeOut(*out, append(data, '\n')); err != nil {
			fail(err)
		}
		fmt.Fprintln(os.Stderr, doc.summary())
	}
	if runErr != nil {
		fail(runErr)
	}
}

// serveConfig parameterizes one serve run (the flag surface, testable).
type serveConfig struct {
	Engine     dlrmperf.EngineConfig
	AssetPaths []string
	// SaveAssets names a directory to write per-device asset files into
	// after serving ("" disables).
	SaveAssets string
	// Stream configures the admission queue and worker pool.
	Stream serve.Config
	// DrainGrace bounds the HTTP shutdown wait after a signal.
	DrainGrace time.Duration
	// Register lists the cluster coordinators this worker self-registers
	// with (empty disables) — every one of them, so a replicated control
	// plane keeps routing to this worker when its leader dies; it also
	// enables the worker's POST /v1/drain endpoint so a coordinator can
	// propagate shutdown, and heartbeat-time calibration-asset pushes
	// into the coordinators' replicated vaults.
	Register []string
	// Advertise is the base URL sent on registration (default derived
	// from the bound listener).
	Advertise string
	// Heartbeat is the re-registration interval.
	Heartbeat time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/ (opt-in: the
	// profiling surface is never exposed by default).
	Pprof bool
}

// engineConfig assembles the engine options of a run. fast selects the
// low-fidelity calibration preset (dlrmperf.FastCalibConfig) used by
// smoke tests and CI.
func engineConfig(seed uint64, workers int, fast bool) dlrmperf.EngineConfig {
	if fast {
		return dlrmperf.FastCalibConfig(seed, workers)
	}
	return dlrmperf.EngineConfig{Seed: seed, Workers: workers}
}

func splitPaths(csv string) []string {
	var out []string
	for _, p := range strings.Split(csv, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// newEngine builds the engine and applies warm-start asset files.
func newEngine(cfg serveConfig) (*dlrmperf.Engine, error) {
	eng, err := dlrmperf.NewEngineWith(cfg.Engine)
	if err != nil {
		return nil, err
	}
	for _, path := range cfg.AssetPaths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if err := eng.LoadAssets(data); err != nil {
			return nil, fmt.Errorf("loading %s: %w", path, err)
		}
	}
	return eng, nil
}

// newServer wires the engine behind the admission pipeline.
func newServer(cfg serveConfig, eng *dlrmperf.Engine) *serve.Server {
	sc := cfg.Stream
	sc.Backend = eng
	return serve.New(sc)
}

// document is what a one-shot run writes: a batch's oneShot or a
// sweep's exploreShot, each with its one-line stderr summary.
type document interface{ summary() string }

// runOneShot reads the -in document and runs the job its shape names,
// both through oneShotRun: a JSON array is a request batch (serveOnce),
// a JSON object an explore.Grid (exploreOnce). A batch in which every
// request failed returns its document and an error, so the process
// exits non-zero.
func runOneShot(cfg serveConfig, path string) (document, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	switch trimmed := bytes.TrimSpace(data); {
	case bytes.HasPrefix(trimmed, []byte("[")):
		var reqs []serve.Request
		if err := json.Unmarshal(data, &reqs); err != nil {
			return nil, fmt.Errorf("parsing requests: %w", err)
		}
		if len(reqs) == 0 {
			return nil, fmt.Errorf("no requests in %s", path)
		}
		rep, err := serveOnce(cfg, reqs)
		if rep == nil {
			return nil, err
		}
		if err == nil && rep.Error != nil {
			err = fmt.Errorf("%s: %s", rep.Error.Code, rep.Error.Message)
		}
		return rep, err
	case bytes.HasPrefix(trimmed, []byte("{")):
		var g explore.Grid
		if err := json.Unmarshal(data, &g); err != nil {
			return nil, fmt.Errorf("parsing grid: %w", err)
		}
		rep, err := exploreOnce(cfg, g)
		if rep == nil {
			return nil, err
		}
		return rep, err
	}
	return nil, fmt.Errorf("-in %s: neither a request array nor a grid object", path)
}

// oneShot is the one-shot batch document: the batch report, plus the
// server's GET /stats document taken right after the batch — the
// engine served exactly this batch, so its counters account for these
// rows alone.
type oneShot struct {
	*serve.Report
	Stats serve.Stats `json:"stats"`
}

func (r *oneShot) summary() string {
	return fmt.Sprintf("served %d requests (%d failed) in %.1f ms, calibrations: %v, cache %d/%d hit/miss",
		r.Requests, r.Failed, r.ElapsedMs, r.Stats.Calibrations, r.Stats.Cache.Hits, r.Stats.Cache.Misses)
}

// exploreShot is the one-shot explore document: exactly the
// explore.Report POST /v1/explore returns.
type exploreShot struct{ *explore.Report }

func (r *exploreShot) summary() string {
	return fmt.Sprintf("explored %d grid points (%d unique + %d duplicates + %d rejected): %d predicted, %d failed in %.1f ms",
		r.GridPoints, r.Unique, r.Duplicates, r.Rejected, r.Predicted, r.Failed, r.ElapsedMs)
}

// oneShotRun is the one-shot sequence every -in shape shares: build the
// engine (warm-started from cfg.AssetPaths), put a server in front of
// it, run job through that server's admission pipeline, drain, and
// re-save assets. A job error returns no document. A re-save failure
// returns the document and the error, so the rows that did serve are
// never lost and the process still exits non-zero.
func oneShotRun[D document](cfg serveConfig, job func(*serve.Server) (D, error)) (D, error) {
	var none D
	eng, err := newEngine(cfg)
	if err != nil {
		return none, err
	}
	srv := newServer(cfg, eng)
	doc, err := job(srv)
	srv.Drain()
	if err != nil {
		return none, err
	}
	if err := saveAssetsFor(eng, cfg.SaveAssets); err != nil {
		return doc, fmt.Errorf("saving assets: %w", err)
	}
	return doc, nil
}

// serveOnce serves the request batch (Server.Run) and takes the stats
// block right after it. A re-save failure also lands in the report's
// error block.
func serveOnce(cfg serveConfig, reqs []serve.Request) (*oneShot, error) {
	rep, err := oneShotRun(cfg, func(srv *serve.Server) (*oneShot, error) {
		rep := &oneShot{Report: srv.Run(context.Background(), reqs)}
		rep.Stats = srv.Stats()
		return rep, nil
	})
	if err != nil && rep != nil && rep.Error == nil {
		rep.Error = &serve.ReportError{Code: "save_assets_failed", Message: err.Error()}
	}
	return rep, err
}

// exploreOnce sweeps the grid (Server.RunExplore: the MaxGrid bound,
// then every unique unit as a batch row carrying the grid's
// timeout_ms), exactly as POST /v1/explore does.
func exploreOnce(cfg serveConfig, g explore.Grid) (*exploreShot, error) {
	return oneShotRun(cfg, func(srv *serve.Server) (*exploreShot, error) {
		rep, err := srv.RunExplore(context.Background(), g)
		if err != nil {
			return nil, err
		}
		return &exploreShot{rep}, nil
	})
}

// saveAssetsFor writes one asset file into dir per device holding a
// resident calibration. Warm-started devices are included — residency,
// not calibration counts, is the criterion — so overhead DBs collected
// this run are never silently dropped, and a loaded device that saw no
// traffic survives the warm-start -> serve -> re-save round trip.
func saveAssetsFor(eng *dlrmperf.Engine, dir string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range eng.CalibratedDevices() {
		data, err := eng.SaveAssets(d)
		if err != nil {
			return err
		}
		name := strings.ReplaceAll(d, " ", "_") + ".json"
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// listenAndServe runs the HTTP service until a SIGTERM/SIGINT (or,
// when registered with a coordinator, a propagated POST /v1/drain),
// then drains gracefully: the listener stops, in-flight requests
// finish, new admissions are rejected, and assets are re-saved if
// requested. A failed asset re-save propagates to the exit code. With
// cfg.Register set the worker heartbeats its advertised URL to the
// coordinator so it joins (and stays in) the cluster's routing set.
func listenAndServe(cfg serveConfig, addr string) error {
	eng, err := newEngine(cfg)
	if err != nil {
		return err
	}
	srv := newServer(cfg, eng)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dlrmperf-serve: listening on %s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	handler := http.Handler(srv.Handler())
	stopHeartbeat := func() {}
	if len(cfg.Register) > 0 {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		// The coordinator-propagated drain: acknowledge, then feed the
		// same signal path SIGTERM takes so there is exactly one
		// shutdown sequence.
		mux.HandleFunc("POST /v1/drain", func(w http.ResponseWriter, _ *http.Request) {
			serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "draining"})
			select {
			case sig <- syscall.SIGTERM:
			default: // a shutdown is already in flight
			}
		})
		handler = mux

		advertise := cfg.Advertise
		if advertise == "" {
			advertise = "http://" + advertiseHostPort(ln, cfg.Register[0])
		}
		hbCtx, hbCancel := context.WithCancel(context.Background())
		defer hbCancel()
		// The heartbeat reaches EVERY listed coordinator and carries
		// asset pushes: each calibrated device's exported assets land in
		// the coordinators' replicated vaults, so if this worker dies its
		// devices' new homes are handed them instead of recalibrating.
		stopHeartbeat = cluster.HeartbeatAssets(hbCtx, cfg.Register, advertise, advertise, cfg.Heartbeat, eng)
		defer stopHeartbeat()
		fmt.Fprintf(os.Stderr, "dlrmperf-serve: registering with %s as %s\n", strings.Join(cfg.Register, ","), advertise)
	}

	// Stop heartbeating BEFORE draining: each beat re-registers and
	// lifts any failure quarantine at the coordinator, so a worker that
	// kept beating through its (up to -drain-grace long) drain would
	// keep re-attracting traffic it is about to 503.
	if err := serveUntilSignal(ln, handler, sig, "", cfg.Pprof, cfg.DrainGrace, stopHeartbeat, srv.Drain); err != nil {
		return err
	}

	if err := saveAssetsFor(eng, cfg.SaveAssets); err != nil {
		return fmt.Errorf("saving assets: %w", err)
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr,
		"dlrmperf-serve: drained; %d requests, cache %d/%d hit/miss, rejected %d validation / %d queue-full / %d tenant-limited / %d draining, canceled %d\n",
		st.Requests, st.Cache.Hits, st.Cache.Misses,
		st.Rejected.Validation, st.Rejected.QueueFull, st.Rejected.TenantLimited, st.Rejected.Draining, st.Canceled)
	return nil
}

// advertiseHostPort derives the default self-registration address from
// the bound listener. A listener on a specific address advertises it
// verbatim; a wildcard listener (`-listen :8081` binds `[::]` or
// `0.0.0.0`, which other hosts cannot dial) advertises the local IP
// the routing table picks for reaching the coordinator (a connectless
// UDP "dial" — no packets are sent), falling back to loopback.
func advertiseHostPort(ln net.Listener, register string) string {
	addr, ok := ln.Addr().(*net.TCPAddr)
	if !ok {
		return ln.Addr().String()
	}
	if !addr.IP.IsUnspecified() {
		return addr.String()
	}
	host := "127.0.0.1"
	if u, err := url.Parse(register); err == nil && u.Host != "" {
		target := u.Host
		if u.Port() == "" {
			target = net.JoinHostPort(target, "80")
		}
		if conn, err := net.Dial("udp", target); err == nil {
			if local, ok := conn.LocalAddr().(*net.UDPAddr); ok {
				host = local.IP.String()
			}
			conn.Close()
		}
	}
	return net.JoinHostPort(host, fmt.Sprintf("%d", addr.Port))
}

// serveUntilSignal is the one process lifecycle of both HTTP roles: it
// serves handler on ln (behind the pprof surface when pprofOn) until
// the server fails or sig receives SIGTERM/SIGINT, then stops the
// role's background loop (stop: the heartbeat or the peer probes),
// drains its admissions (drain: new ones are refused, every admitted
// one finishes and is delivered), and only then shuts the HTTP server
// down within grace — its handlers are unblocked by now, so Shutdown
// just closes the listener and idle connections. role prefixes the
// log lines ("" for a worker).
func serveUntilSignal(ln net.Listener, handler http.Handler, sig chan os.Signal, role string, pprofOn bool, grace time.Duration, stop, drain func()) error {
	if pprofOn {
		handler = withPprof(handler)
		fmt.Fprintf(os.Stderr, "dlrmperf-serve: pprof exposed at /debug/pprof/\n")
	}
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	hs := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "dlrmperf-serve: %s%v: draining\n", role, s)
	}
	stop()
	drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "dlrmperf-serve: %shttp shutdown: %v\n", role, err)
	}
	return nil
}

// withPprof mounts the net/http/pprof surface in front of a handler:
// /debug/pprof/ routes to the profiler, everything else passes through.
// Explicit registration (instead of the package's init-time
// DefaultServeMux side effect) keeps the surface off every mux that
// did not opt in.
func withPprof(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", next)
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

// coordinatorConfig parameterizes a coordinator run.
type coordinatorConfig struct {
	Addr          string
	StaticWorkers []string
	// Peers lists the other coordinators of a replicated control plane;
	// Advertise is the base URL peers reach this coordinator at
	// (default derived from the bound listener).
	Peers     []string
	Advertise string
	Liveness  time.Duration
	// Heartbeat is the peer-probe interval under Peers.
	Heartbeat  time.Duration
	DrainGrace time.Duration
	Pprof      bool
}

// runCoordinator serves the cluster coordinator until SIGTERM/SIGINT,
// then drains: in-flight routes finish, and the drain is propagated to
// the workers that registered with this coordinator. The engine
// behind it is cache-only — it never calibrates; it just lends its
// fingerprint result cache to the pass-through, so repeats of an
// identical scenario are answered without a worker round trip. With
// Peers set the coordinator joins a replicated control plane: a
// leader lease over the peer set, registrations forwarded through the
// leader, and result/asset state gossiped so any surviving
// coordinator routes warm after this one dies.
func runCoordinator(cfg coordinatorConfig) error {
	reg := cluster.NewRegistry(cfg.Liveness)
	for _, u := range cfg.StaticWorkers {
		reg.AddStatic(u)
	}
	cacheEng, err := dlrmperf.NewEngineWith(dlrmperf.EngineConfig{})
	if err != nil {
		return err
	}

	// Listen before constructing the coordinator: with peers, the self
	// URL the lease ranks by must name the ACTUAL bound address (a :0
	// listener only knows it after Listen).
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	self := cfg.Advertise
	if self == "" && len(cfg.Peers) > 0 {
		self = "http://" + advertiseHostPort(ln, cfg.Peers[0])
	}
	coord := cluster.New(cluster.Config{
		Registry: reg,
		Cache:    cacheEng,
		Self:     self,
		Peers:    cfg.Peers,
	})

	fmt.Fprintf(os.Stderr, "dlrmperf-serve: coordinator listening on %s (%d static workers, liveness %s)\n",
		ln.Addr(), len(cfg.StaticWorkers), reg.TTL())
	stopProbes := func() {}
	if len(cfg.Peers) > 0 {
		probeCtx, probeCancel := context.WithCancel(context.Background())
		defer probeCancel()
		stopProbes = coord.StartPeerProbes(probeCtx, cfg.Heartbeat)
		defer stopProbes()
		fmt.Fprintf(os.Stderr, "dlrmperf-serve: coordinator %s replicating with peers %s\n", self, strings.Join(cfg.Peers, ","))
	}
	// Drain order mirrors the worker: peer probes stop (this
	// coordinator stops refreshing its own view; peers age it out of
	// theirs via /healthz turning "draining"), routes drain (new
	// admissions get 503 while in-flight ones finish on their workers),
	// the drain propagates to owned workers, then the HTTP server closes.
	drain := func() { coord.Drain(true) }
	if err := serveUntilSignal(ln, coord.Handler(), make(chan os.Signal, 1), "coordinator ", cfg.Pprof, cfg.DrainGrace, stopProbes, drain); err != nil {
		return err
	}
	st := coord.Stats(context.Background())
	fmt.Fprintf(os.Stderr,
		"dlrmperf-serve: coordinator drained; %d received (%d local cache hits), cluster %d requests, cache %d/%d hit/miss, rejected %d (worker_failed %d)\n",
		st.Coordinator.Received, st.Coordinator.LocalCacheHits, st.Requests,
		st.Cache.Hits, st.Cache.Misses, st.Rejected.Total(), st.Rejected.WorkerFailed)
	return nil
}

// generate writes a round-robin request list covering every workload on
// every device across a spread of batch sizes.
func generate(n int, out string) {
	batches := []int64{512, 1024, 2048, 4096}
	var reqs []serve.Request
	devices := dlrmperf.Devices()
	workloads := dlrmperf.Workloads()
	for i := 0; i < n; i++ {
		reqs = append(reqs, serve.Request{
			Workload: workloads[i%len(workloads)],
			Device:   devices[(i/len(workloads))%len(devices)],
			Batch:    batches[(i/(len(workloads)*len(devices)))%len(batches)],
		})
	}
	data, err := json.MarshalIndent(reqs, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := writeOut(out, append(data, '\n')); err != nil {
		fail(err)
	}
}

func writeOut(path string, data []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
