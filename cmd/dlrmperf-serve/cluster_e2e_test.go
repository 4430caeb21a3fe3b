package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dlrmperf/internal/client"
	"dlrmperf/internal/cluster"
	"dlrmperf/internal/serve"
)

// serveProc is one dlrmperf-serve child process (worker or
// coordinator) with its announced listen address and a race-guarded
// stderr tail for failure forensics.
type serveProc struct {
	name string
	cmd  *exec.Cmd

	addr string

	tailMu   sync.Mutex
	tailBuf  bytes.Buffer
	scanDone chan struct{}
}

func (p *serveProc) tail() string {
	p.tailMu.Lock()
	defer p.tailMu.Unlock()
	return p.tailBuf.String()
}

func (p *serveProc) base() string { return "http://" + p.addr }

// waitExit waits for the process to close stderr and exit, returning
// its wait error.
func (p *serveProc) waitExit(t *testing.T, timeout time.Duration) error {
	t.Helper()
	select {
	case <-p.scanDone:
	case <-time.After(timeout):
		t.Fatalf("%s stderr never closed; tail:\n%s", p.name, p.tail())
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		t.Fatalf("%s never exited; tail:\n%s", p.name, p.tail())
		return nil
	}
}

// startServeProc launches the built binary with args and waits for its
// "listening on ADDR" announcement.
func startServeProc(t *testing.T, name, bin string, args ...string) *serveProc {
	t.Helper()
	p := &serveProc{name: name, cmd: exec.Command(bin, args...), scanDone: make(chan struct{})}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.cmd.Process.Kill() })

	addrCh := make(chan string, 1)
	go func() {
		defer close(p.scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.tailMu.Lock()
			p.tailBuf.WriteString(line + "\n")
			p.tailMu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				addr := strings.TrimSpace(line[i+len("listening on "):])
				if j := strings.IndexByte(addr, ' '); j >= 0 {
					addr = addr[:j] // the coordinator line appends "(N static workers, ...)"
				}
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	select {
	case p.addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s never announced its address; tail:\n%s", name, p.tail())
	}
	return p
}

// waitForWorkers polls the coordinator's /healthz through the client
// until it reports n live workers.
func waitForWorkers(t *testing.T, cl *client.Client, coord *serveProc, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		h, err := cl.Healthz(context.Background())
		if err == nil && h.Status == "ok" && h.Workers == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never registered (last: %+v / %v); coordinator tail:\n%s", h, err, coord.tail())
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestE2ECluster is the cross-process sharded-serving end-to-end: it
// builds the binary once, starts 1 coordinator + 2 self-registering
// fast-calib workers, serves the mixed cluster fixture through the
// coordinator asserting device-affine routing (each device calibrated
// on exactly one worker) and a result-cache hit on the duplicate
// scenario, verifies the aggregated /stats invariant, SIGKILLs the
// worker owning V100 and requires the next V100 request to fail over
// transparently to the survivor (counted under rejected.worker_failed),
// and finally SIGTERMs the coordinator expecting a clean drain that
// propagates to the surviving worker: both exit 0.
func TestE2ECluster(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("drains via SIGTERM; not exercised on windows")
	}
	bin := filepath.Join(t.TempDir(), "dlrmperf-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building binary: %v\n%s", err, out)
	}

	coord := startServeProc(t, "coordinator", bin,
		"-coordinator", "-listen", "127.0.0.1:0", "-liveness", "3s")
	w1 := startServeProc(t, "worker1", bin,
		"-listen", "127.0.0.1:0", "-fast-calib",
		"-register", coord.base(), "-heartbeat", "200ms")
	w2 := startServeProc(t, "worker2", bin,
		"-listen", "127.0.0.1:0", "-fast-calib",
		"-register", coord.base(), "-heartbeat", "200ms")
	workers := map[string]*serveProc{w1.base(): w1, w2.base(): w2}

	ctx := context.Background()
	cl := client.New(coord.base())

	// Both workers register within a few heartbeats.
	waitForWorkers(t, cl, coord, 2)

	// The coordinator re-exports the scenario registry.
	scenarios, err := cl.Scenarios(ctx)
	if err != nil || len(scenarios) == 0 {
		t.Fatalf("scenarios = %d names / %v", len(scenarios), err)
	}

	// The mixed fixture through the cluster: V100 and P100 rows split
	// across the two workers by rendezvous hashing, the duplicate
	// DLRM_DDP/V100 row served from a result cache.
	fixture, err := os.ReadFile(filepath.Join("testdata", "cluster_requests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var reqs []serve.Request
	if err := json.Unmarshal(fixture, &reqs); err != nil {
		t.Fatal(err)
	}
	var rep cluster.Report
	if err := cl.PredictBatchInto(ctx, reqs, &rep); err != nil {
		t.Fatalf("batch: %v\ncoordinator tail:\n%s", err, coord.tail())
	}
	if rep.Requests != 4 || rep.Failed != 0 {
		t.Fatalf("fixture report = %d requests / %d failed, want 4/0: %+v", rep.Requests, rep.Failed, rep)
	}
	hit := false
	for _, row := range rep.Results {
		if row.CacheHit {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("no cache hit on the duplicate fixture scenario: %+v", rep)
	}

	// Aggregated accounting invariant, cluster-wide, at quiescence.
	var st cluster.Stats
	if err := cl.StatsInto(ctx, &st); err != nil {
		t.Fatal(err)
	}
	if got := st.Accounted(); got != st.Requests {
		t.Fatalf("cluster stats invariant broken: hits %d + misses %d + rejected %d = %d, requests %d\n%s",
			st.Cache.Hits, st.Cache.Misses, st.Rejected.Total(), got, st.Requests, coord.tail())
	}

	// Device-affine routing: each device calibrated on exactly one
	// worker, exactly once — the ledger of the aggregated /stats.
	owner := map[string]string{}
	for workerID, devs := range st.Calibrations {
		for dev, runs := range devs {
			if prev, dup := owner[dev]; dup {
				t.Fatalf("device %s calibrated on both %s and %s", dev, prev, workerID)
			}
			owner[dev] = workerID
			if runs != 1 {
				t.Fatalf("device %s calibrated %d times on %s, want 1", dev, runs, workerID)
			}
		}
	}
	for _, dev := range []string{"V100", "P100"} {
		if owner[dev] == "" {
			t.Fatalf("device %s calibrated nowhere; ledger %v", dev, st.Calibrations)
		}
	}

	// Fault injection: SIGKILL the worker that owns V100, then ask for
	// a V100 scenario the cluster has not cached. The coordinator must
	// burn one attempt on the dead socket (counted under
	// rejected.worker_failed), fail over to the survivor, and answer
	// transparently.
	victim := workers[owner["V100"]]
	if victim == nil {
		t.Fatalf("V100 owner %q is not one of the started workers %v", owner["V100"], workers)
	}
	survivor := w1
	if victim == w1 {
		survivor = w2
	}
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.waitExit(t, 30*time.Second) // SIGKILL: exit error expected, just reap it

	row, err := cl.Predict(ctx, serve.Request{Workload: "DLRM_DDP", Batch: 2048, Device: "V100"})
	if err != nil {
		t.Fatalf("failover predict: %v\ncoordinator tail:\n%s", err, coord.tail())
	}
	if row.Error != "" || row.E2EUs <= 0 {
		t.Fatalf("failover row = %+v, want a served prediction", row)
	}
	if err := cl.StatsInto(ctx, &st); err != nil {
		t.Fatal(err)
	}
	if st.Rejected.WorkerFailed == 0 {
		t.Fatalf("worker_failed = 0 after killing the V100 owner:\n%s", coord.tail())
	}
	if got := st.Accounted(); got != st.Requests {
		t.Fatalf("cluster invariant broken after failover: accounted %d, requests %d", got, st.Requests)
	}

	// Clean shutdown: SIGTERM the coordinator; it drains its routes and
	// propagates the drain to the surviving registered worker. Both
	// exit 0.
	if err := coord.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := coord.waitExit(t, 2*time.Minute); err != nil {
		t.Fatalf("coordinator drain exited non-zero: %v; tail:\n%s", err, coord.tail())
	}
	if err := survivor.waitExit(t, 2*time.Minute); err != nil {
		t.Fatalf("survivor did not drain cleanly on propagation: %v; tail:\n%s", err, survivor.tail())
	}
	if !strings.Contains(survivor.tail(), "draining") {
		t.Errorf("survivor never logged its drain; tail:\n%s", survivor.tail())
	}
	t.Logf("cluster drained cleanly; coordinator tail:\n%s", coord.tail())
}

// TestClusterFlagValidation: -coordinator without -listen must fail
// fast instead of silently running a one-shot batch.
func TestClusterFlagValidation(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "dlrmperf-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building binary: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-coordinator").CombinedOutput()
	if err == nil {
		t.Fatalf("-coordinator without -listen exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "-coordinator requires -listen") {
		t.Fatalf("unexpected failure output: %s", out)
	}
}

// TestE2EClusterLoad is the cross-process tenant-load smoke: 1
// coordinator + 2 fast-calib workers with a 4-deep admission queue,
// then 60 requests from tenant "hot" at priority high and 60 from
// "bg" at low, fired concurrently over four rows with a bounded
// number in flight. Every request must either serve or be shed with
// a 429/503 rejection code — no transport errors, no other failures —
// at least one must serve from a cache, no more than 90% may be shed,
// and the aggregated /stats invariant must hold once all have
// returned. Fairness and per-tenant caps are pinned in-process by
// internal/serve's fair_test.go.
func TestE2EClusterLoad(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "dlrmperf-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building binary: %v\n%s", err, out)
	}

	coord := startServeProc(t, "coordinator", bin,
		"-coordinator", "-listen", "127.0.0.1:0", "-liveness", "3s")
	for _, name := range []string{"worker1", "worker2"} {
		startServeProc(t, name, bin,
			"-listen", "127.0.0.1:0", "-fast-calib", "-queue", "4",
			"-register", coord.base(), "-heartbeat", "200ms")
	}
	cl := client.New(coord.base())
	waitForWorkers(t, cl, coord, 2)

	rows := []serve.Request{
		{Workload: "DLRM_DDP", Batch: 512, Device: "V100"},
		{Workload: "DLRM_DDP", Batch: 1024, Device: "V100"},
		{Workload: "DLRM_DDP", Batch: 512, Device: "P100"},
		{Workload: "DLRM_DDP", Batch: 2048, Device: "P100"},
	}
	tenants := []struct{ name, priority string }{{"hot", "high"}, {"bg", "low"}}
	const perTenant, maxInFlight = 60, 16

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var (
		mu             sync.Mutex
		ok, hits, shed int
		failures       []string
		wg             sync.WaitGroup
		slots          = make(chan struct{}, maxInFlight)
	)
	for i := 0; i < perTenant; i++ {
		for _, tn := range tenants {
			req := rows[i%len(rows)]
			req.Tenant, req.Priority = tn.name, tn.priority
			slots <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-slots }()
				res, err := cl.Predict(ctx, req)
				mu.Lock()
				defer mu.Unlock()
				var api *serve.StatusError
				switch {
				case err == nil && res.Error == "":
					ok++
					if res.CacheHit {
						hits++
					}
				case err == nil:
					failures = append(failures, "row error: "+res.Error)
				case !errors.As(err, &api):
					failures = append(failures, "transport: "+err.Error())
				case (api.Status == 429 || api.Status == 503) && api.Code != "" && api.Code != "unknown":
					shed++
				default:
					failures = append(failures, err.Error())
				}
			}()
		}
	}
	wg.Wait()

	total := perTenant * len(tenants)
	t.Logf("%d requests: %d ok (%d cache hits), %d shed", total, ok, hits, shed)
	if len(failures) > 0 {
		t.Fatalf("%d requests neither served nor shed with a rejection code; first: %s\ncoordinator tail:\n%s",
			len(failures), failures[0], coord.tail())
	}
	if ok == 0 {
		t.Fatalf("no request served under load; coordinator tail:\n%s", coord.tail())
	}
	if hits == 0 {
		t.Errorf("no cache hit across %d served requests over %d rows", ok, len(rows))
	}
	if share := float64(shed) / float64(total); share > 0.9 {
		t.Errorf("shed share %.2f > 0.9", share)
	}

	var st cluster.Stats
	if err := cl.StatsInto(ctx, &st); err != nil {
		t.Fatal(err)
	}
	if got := st.Accounted(); got != st.Requests {
		t.Fatalf("cluster stats invariant broken under load: hits %d + misses %d + rejected %d = %d, requests %d",
			st.Cache.Hits, st.Cache.Misses, st.Rejected.Total(), got, st.Requests)
	}
}
