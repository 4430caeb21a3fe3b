package serve_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dlrmperf/internal/client"
	"dlrmperf/internal/serve"
)

// loaderBackend wraps the fake backend with an AssetLoader surface so
// the install endpoint's happy path can be exercised without a real
// engine. A payload containing "bad" refuses, everything else
// installs. (The client ships payloads as raw JSON, so even the
// refused blob must parse.)
type loaderBackend struct {
	*serve.TestBackend
	installed [][]byte
}

func (l *loaderBackend) LoadAssets(data []byte) error {
	if strings.Contains(string(data), "bad") {
		return errors.New("loader: malformed asset payload")
	}
	l.installed = append(l.installed, data)
	return nil
}

// TestHTTPInstallAssets pins the worker-side warm hand-off endpoint:
// a valid payload installs and is counted as a control-plane stat (no
// request counters move), a payload the backend refuses surfaces as
// 400 bad_assets, and a backend without the AssetLoader surface gets
// 501 so the coordinator knows the hand-off cannot land here.
func TestHTTPInstallAssets(t *testing.T) {
	lb := &loaderBackend{TestBackend: serve.NewTestBackend()}
	lb.Release()
	s, cl := newHTTPServer(t, serve.Config{Backend: lb, QueueDepth: 4, Workers: 1})
	ctx := context.Background()

	if err := cl.InstallAssets(ctx, []byte(`{"version":1,"device":"FakeGPU"}`)); err != nil {
		t.Fatalf("install = %v, want accepted", err)
	}
	if len(lb.installed) != 1 {
		t.Fatalf("backend saw %d installs, want 1", len(lb.installed))
	}

	// A refused payload is the caller's problem, typed bad_assets.
	var api *client.APIError
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

// TestHTTPInstallAssetsUnsupported: a backend without LoadAssets gets
// a 501, not a silent success the coordinator would mistake for a
// warm hand-off.
func TestHTTPInstallAssetsUnsupported(t *testing.T) {
	fb := serve.NewTestBackend()
	fb.Release()
	_, cl := newHTTPServer(t, serve.Config{Backend: fb, QueueDepth: 4, Workers: 1})

	var api *client.APIError
	err := cl.InstallAssets(context.Background(), []byte(`{}`))
	if !errors.As(err, &api) || api.Status != 501 || api.Code != "unsupported" {
		t.Fatalf("install on loader-less backend = %v, want 501 unsupported", err)
	}
}

// TestHTTPInstallAssetsDraining: a draining worker is leaving the
// routing set and must refuse new device ownership — 503 draining
// with a Retry-After hint, same taxonomy as the predict path.
func TestHTTPInstallAssetsDraining(t *testing.T) {
	lb := &loaderBackend{TestBackend: serve.NewTestBackend()}
	lb.Release()
	s, cl := newHTTPServer(t, serve.Config{Backend: lb, QueueDepth: 4, Workers: 1})
	s.Drain()

	var dr *client.ErrDraining
	err := cl.InstallAssets(context.Background(), []byte(`{"version":1}`))
	if !errors.As(err, &dr) {
		t.Fatalf("install on draining worker = %v, want ErrDraining", err)
	}
	if dr.RetryAfter < serve.MinRetryAfter {
		t.Fatalf("draining install Retry-After = %v, want at least the %v floor", dr.RetryAfter, serve.MinRetryAfter)
	}
	if len(lb.installed) != 0 {
		t.Fatal("draining worker accepted an asset install")
	}
}
