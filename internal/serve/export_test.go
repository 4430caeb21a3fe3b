package serve

import "testing"

// Test-only exports for the external serve_test package (which drives
// the HTTP surface through internal/client — an import the internal
// test package cannot make, since client imports serve).

// TestBackend is the controllable fake backend shared by both test
// packages.
type TestBackend = fakeBackend

// NewTestBackend returns a fresh controllable backend.
func NewTestBackend() *TestBackend { return newFakeBackend() }

// Release unparks every "block" request (idempotent via test
// discipline: call once).
func (f *fakeBackend) Release() { close(f.release) }

// StartedCh ticks once per request entering the blocked section.
func (f *fakeBackend) StartedCh() <-chan struct{} { return f.started }

// Installs counts the asset payloads the backend accepted.
func (f *fakeBackend) Installs() uint64 { return f.installs.Load() }

// AssertInvariant re-exports the accounting-identity assertion.
func AssertInvariant(t *testing.T, st Stats) {
	t.Helper()
	assertInvariant(t, st)
}

// WaitFor re-exports the polling helper.
func WaitFor(t *testing.T, cond func() bool) {
	t.Helper()
	waitFor(t, cond)
}
