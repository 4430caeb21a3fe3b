package explore

import (
	"testing"

	"dlrmperf/internal/leakcheck"
)

// TestMain guards the package against leaked goroutines: a sweep whose
// server drain strands a queue worker fails the suite.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
