// Package leakcheck is a stdlib-only goroutine-leak guard in the
// spirit of go.uber.org/goleak (which the offline build environment
// cannot vendor): a TestMain wrapper that, after the package's tests
// pass, polls the full goroutine dump until everything the tests
// spawned has exited, and fails the run otherwise.
//
// Wire it in with one file per test package:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// The serving layers (internal/serve, internal/cluster,
// internal/explore) run under this guard so a drain or cancel path
// that strands a worker goroutine fails the race job, not production.
//
//lint:allow unlinked test infrastructure: the TestMain goroutine-leak guard
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// ignoredStacks marks goroutines that are expected to outlive tests:
// the test harness itself and process-global runtime/net machinery.
// Matching is by substring against any line of the goroutine's stack.
var ignoredStacks = []string{
	// Test harness.
	"testing.Main(",
	"testing.(*M).",
	"testing.tRunner(",
	"testing.runTests(",
	// Runtime helpers that appear in all=true dumps.
	"runtime.runfinq",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.gcBgMarkWorker",
	"runtime.forcegchelper",
	"runtime.ReadTrace",
	// Signal delivery (installed once per process by os/signal users
	// such as the drain tests).
	"os/signal.signal_recv",
	"os/signal.loop",
	// net/http keep-alive connection pools are process-global: idle
	// persistConns linger by design until their idle timeout.
	"net/http.(*persistConn).readLoop",
	"net/http.(*persistConn).writeLoop",
	"net/http.setupRewindBody",
}

// Main runs the package's tests and then verifies no test-spawned
// goroutines are left behind, giving asynchronous teardown a grace
// period to finish before declaring a leak.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := wait(5 * time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) leaked by this test package:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// wait polls the goroutine dump until it is clean or the deadline
// passes, returning the stacks still alive at the end.
func wait(grace time.Duration) []string {
	deadline := time.Now().Add(grace)
	delay := 1 * time.Millisecond
	for {
		leaked := snapshot()
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(delay)
		if delay < 100*time.Millisecond {
			delay *= 2
		}
	}
}

// snapshot returns the stacks of all live goroutines except the
// calling one and the ignore list.
func snapshot() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	stacks := strings.Split(strings.TrimSpace(string(buf)), "\n\n")
	var leaked []string
	for i, s := range stacks {
		if i == 0 {
			continue // the goroutine running leakcheck itself
		}
		if ignored(s) {
			continue
		}
		leaked = append(leaked, s)
	}
	return leaked
}

func ignored(stack string) bool {
	for _, pat := range ignoredStacks {
		if strings.Contains(stack, pat) {
			return true
		}
	}
	return false
}
