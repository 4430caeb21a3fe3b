package serve_test

import (
	"context"
	"errors"
	"net/http"
	"testing"

	"dlrmperf/internal/serve"
)

// TestHTTPInstallAssets pins the worker-side warm hand-off endpoint:
// a valid payload installs and is counted as a control-plane stat (no
// request counters move), and a payload the backend refuses surfaces
// as 400 bad_assets. (The client ships payloads as raw JSON, so even
// the refused blob must parse.)
func TestHTTPInstallAssets(t *testing.T) {
	fb := serve.NewTestBackend()
	fb.Release()
	s, cl := newHTTPServer(t, serve.Config{Backend: fb, QueueDepth: 4, Workers: 1})
	ctx := context.Background()

	if err := cl.InstallAssets(ctx, []byte(`{"version":1,"device":"FakeGPU"}`)); err != nil {
		t.Fatalf("install = %v, want accepted", err)
	}
	if n := fb.Installs(); n != 1 {
		t.Fatalf("backend saw %d installs, want 1", n)
	}

	// A refused payload is the caller's problem, typed bad_assets.
	var api *serve.StatusError
	err := cl.InstallAssets(ctx, []byte(`{"bad":true}`))
	if !errors.As(err, &api) || api.Status != 400 || api.Code != "bad_assets" {
		t.Fatalf("refused install err = %v, want 400 bad_assets", err)
	}

	// Installs are control plane: the accounting identity holds with
	// zero requests — no hit, miss, or reject moved.
	st := s.Stats()
	if st.AssetInstalls != 1 {
		t.Fatalf("asset_installs = %d, want 1", st.AssetInstalls)
	}
	if st.Requests != 0 {
		t.Fatalf("requests = %d after installs, want 0 (control plane)", st.Requests)
	}
	serve.AssertInvariant(t, st)
}

// TestHTTPInstallAssetsDraining: a draining worker is leaving the
// routing set and must refuse new device ownership — 503 draining
// with a Retry-After hint, the same refusal as the predict path.
func TestHTTPInstallAssetsDraining(t *testing.T) {
	fb := serve.NewTestBackend()
	fb.Release()
	s, cl := newHTTPServer(t, serve.Config{Backend: fb, QueueDepth: 4, Workers: 1})
	s.Drain()

	var dr *serve.StatusError
	err := cl.InstallAssets(context.Background(), []byte(`{"version":1}`))
	if !errors.As(err, &dr) || dr.Status != http.StatusServiceUnavailable || dr.Code != "draining" {
		t.Fatalf("install on draining worker = %v, want 503 draining", err)
	}
	if dr.RetryAfter < serve.MinRetryAfter {
		t.Fatalf("draining install Retry-After = %v, want at least the %v floor", dr.RetryAfter, serve.MinRetryAfter)
	}
	if fb.Installs() != 0 {
		t.Fatal("draining worker accepted an asset install")
	}
}
