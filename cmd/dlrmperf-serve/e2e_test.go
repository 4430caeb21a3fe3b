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
	"dlrmperf/internal/serve"
)

// TestE2EHTTPServe is the end-to-end smoke CI runs instead of the old
// grep-based report checks: it builds the real binary, starts
// `dlrmperf-serve -listen` on an ephemeral port, serves the checked-in
// mixed single/multi-GPU fixture over the typed client with a
// result-cache hit on the duplicate scenario, provokes 429
// backpressure on the 1-deep admission queue, verifies the /stats
// accounting invariant and /healthz, and finally SIGTERMs the process
// expecting a clean drain (exit 0) with assets re-saved.
func TestE2EHTTPServe(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("drains via SIGTERM; not exercised on windows")
	}
	bin := filepath.Join(t.TempDir(), "dlrmperf-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building binary: %v\n%s", err, out)
	}

	assetsDir := filepath.Join(t.TempDir(), "assets")
	cmd := exec.Command(bin,
		"-listen", "127.0.0.1:0",
		"-fast-calib",
		"-queue", "1",
		"-stream-workers", "1",
		"-save-assets", assetsDir,
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The server prints "listening on 127.0.0.1:PORT" once bound. The
	// scanner goroutine owns the stderr pipe until EOF; tail() guards
	// the buffer so failure paths can read it race-free, and scanDone
	// orders the pipe's EOF before cmd.Wait below.
	addrCh := make(chan string, 1)
	var tailMu sync.Mutex
	var stderrTail bytes.Buffer
	tail := func() string {
		tailMu.Lock()
		defer tailMu.Unlock()
		return stderrTail.String()
	}
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			tailMu.Lock()
			stderrTail.WriteString(line + "\n")
			tailMu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatalf("server never announced its address; stderr:\n%s", tail())
	}

	ctx := context.Background()
	cl := client.New(base)

	// Liveness before any traffic.
	if h, err := cl.Healthz(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("healthz = %+v / %v, want ok", h, err)
	}
	scenarios, err := cl.Scenarios(ctx)
	if err != nil || len(scenarios) == 0 {
		t.Fatalf("scenarios = %d names / %v", len(scenarios), err)
	}

	// The checked-in fixture over the client: the batch endpoint blocks
	// for admission (no 429s even on a 1-deep queue) and the duplicate
	// scenario is served from the result cache.
	fixture, err := os.ReadFile(filepath.Join("testdata", "requests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var reqs []serve.Request
	if err := json.Unmarshal(fixture, &reqs); err != nil {
		t.Fatal(err)
	}
	var rep serve.Report
	if err := cl.PredictBatchInto(ctx, reqs, &rep); err != nil {
		t.Fatalf("batch: %v\nstderr:\n%s", err, tail())
	}
	if rep.Requests != 3 || rep.Failed != 0 {
		t.Fatalf("fixture report = %d requests / %d failed, want 3/0: %+v", rep.Requests, rep.Failed, rep)
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

	// A repeat over the single-predict endpoint is a cache hit too.
	row, err := cl.Predict(ctx, serve.Request{Workload: "DLRM_DDP", Batch: 512, Device: "V100"})
	if err != nil || !row.CacheHit || row.Error != "" {
		t.Fatalf("repeat predict = %+v / %v; want a cache hit", row, err)
	}

	// Backpressure: P100 is cold, so its first request parks the single
	// worker in calibration while the 1-deep queue fills; concurrent
	// singles must shed as 429s with a Retry-After hint.
	const burst = 6
	errs := make([]error, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cl.Predict(ctx, serve.Request{Workload: "DLRM_default", Batch: 512, Device: "P100"})
		}(i)
	}
	wg.Wait()
	got429 := 0
	for _, err := range errs {
		var bp *serve.StatusError
		if errors.As(err, &bp) && bp.Status == 429 {
			got429++
			if bp.Code != "queue_full" && bp.Code != "tenant_limited" || bp.RetryAfter <= 0 {
				t.Errorf("429 without a shed code or a Retry-After hint: %+v", bp)
			}
		}
	}
	if got429 == 0 {
		t.Fatalf("no backpressure in a %d-request burst against a busy 1-deep queue: %v", burst, errs)
	}

	// Accounting invariant over everything served so far.
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Cache.Hits + st.Cache.Misses + st.Rejected.Total(); got != st.Requests {
		t.Fatalf("stats invariant broken: hits %d + misses %d + rejected %d = %d, requests %d\n%+v",
			st.Cache.Hits, st.Cache.Misses, st.Rejected.Total(), got, st.Requests, st)
	}
	if st.Rejected.QueueFull == 0 {
		t.Fatalf("queue-full rejections not counted: %+v", st.Rejected)
	}

	// Clean SIGTERM drain: exit 0, assets re-saved for served devices.
	// Wait for the stderr scanner to hit EOF (process closed its end)
	// before cmd.Wait, which closes the pipe.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-scanDone:
	case <-time.After(2 * time.Minute):
		t.Fatalf("server stderr never closed after SIGTERM; stderr:\n%s", tail())
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SIGTERM drain exited non-zero: %v; stderr:\n%s", err, tail())
		}
	case <-time.After(2 * time.Minute):
		t.Fatalf("server never exited after SIGTERM; stderr:\n%s", tail())
	}
	if _, err := os.Stat(filepath.Join(assetsDir, "V100.json")); err != nil {
		t.Errorf("drain did not re-save V100 assets: %v", err)
	}
	entries, err := os.ReadDir(assetsDir)
	if err != nil {
		t.Fatalf("assets dir missing after drain: %v", err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	t.Logf("drained cleanly; saved assets: %v", names)
}
