package analysis

import (
	"strings"
	"testing"
)

func TestCtxflowFixture(t *testing.T) {
	RunFixture(t, "ctxflow", Ctxflow)
}

// TestAtomicfieldFixture checks ctxflow's sync/atomic rule on a
// package outside the context-propagation layers, where only that
// rule applies.
func TestAtomicfieldFixture(t *testing.T) {
	RunFixture(t, "atomicfield", Ctxflow)
}

// TestTreeIsClean runs the full suite over the real module, pinning
// "make lint passes" as a unit test: any new violation (or stale
// allow directive) fails here before CI.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list; skipped in -short")
	}
	pkgs, err := Load([]string{"dlrmperf/..."})
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 5 {
		t.Fatalf("loaded only %d packages; loader lost the module", len(pkgs))
	}
	var msgs []string
	for _, pkg := range pkgs {
		findings, err := RunPackage(pkg, All(nil))
		if err != nil {
			t.Fatalf("run %s: %v", pkg.Path, err)
		}
		for _, f := range findings {
			msgs = append(msgs, f.String())
		}
	}
	if len(msgs) > 0 {
		t.Errorf("invariant lint findings on the tree:\n%s", strings.Join(msgs, "\n"))
	}
}

// TestAllAnalyzersRegistered pins the suite roster: adding an analyzer
// without wiring it into All() (and thus the CLI) fails here. unlinked
// joins only when given a linked set.
func TestAllAnalyzersRegistered(t *testing.T) {
	want := map[string]bool{"hotpath": true, "deterministic": true, "ctxflow": true, "unlinked": true}
	if n := len(All(nil)); n != len(want)-1 {
		t.Fatalf("All(nil) has %d analyzers, want %d", n, len(want)-1)
	}
	got := All(map[string]bool{})
	if len(got) != len(want) {
		t.Fatalf("All() has %d analyzers, want %d", len(got), len(want))
	}
	for _, a := range got {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q in All()", a.Name)
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing Doc or Run", a.Name)
		}
	}
}
