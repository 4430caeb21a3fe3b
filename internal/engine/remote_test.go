package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRemoteResultPassThrough pins the coordinator-facing cache
// contract: the first request fetches, a repeat is served resident
// without fetching, a concurrent identical burst collapses to one
// fetch, failed fetches are never stored, and the hit/miss counters
// account for every call —
// all on an engine that never calibrates anything.
func TestRemoteResultPassThrough(t *testing.T) {
	e := New(Options{Seed: 1})
	req := NewRequest("V100", "DLRM_default", 512)

	var fetches atomic.Uint64
	fetch := func() (any, error) {
		fetches.Add(1)
		return "payload", nil
	}

	v, hit, err := e.RemoteResult(context.Background(), req, fetch)
	if err != nil || hit || v.(string) != "payload" {
		t.Fatalf("first call = (%v, hit=%v, %v), want fetched payload miss", v, hit, err)
	}
	v, hit, err = e.RemoteResult(context.Background(), req, fetch)
	if err != nil || !hit || v.(string) != "payload" {
		t.Fatalf("repeat = (%v, hit=%v, %v), want resident hit", v, hit, err)
	}
	if fetches.Load() != 1 {
		t.Fatalf("fetches = %d, want 1", fetches.Load())
	}

	// A distinct scenario fetches again; a failing fetch is not stored.
	failing := NewRequest("V100", "DLRM_default", 1024)
	boom := errors.New("worker down")
	if _, _, err := e.RemoteResult(context.Background(), failing, func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("failing fetch err = %v, want %v", err, boom)
	}
	v, hit, err = e.RemoteResult(context.Background(), failing, fetch)
	if err != nil || hit || v.(string) != "payload" {
		t.Fatalf("after failed fetch = (%v, hit=%v, %v), want a fresh miss (failure not cached)", v, hit, err)
	}

	// Concurrent identical burst: exactly one fetch, everyone answered.
	burst := NewRequest("P100", "DLRM_DDP", 512)
	var burstFetches atomic.Uint64
	const clients = 16
	var wg sync.WaitGroup
	hits := atomic.Uint64{}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := e.RemoteResult(context.Background(), burst, func() (any, error) {
				burstFetches.Add(1)
				return "burst", nil
			})
			if err != nil || v.(string) != "burst" {
				t.Errorf("burst client = (%v, %v)", v, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	wg.Wait()
	if burstFetches.Load() != 1 {
		t.Fatalf("burst fetches = %d, want 1 (singleflight collapse)", burstFetches.Load())
	}
	if hits.Load() != clients-1 {
		t.Fatalf("burst hits = %d, want %d", hits.Load(), clients-1)
	}

	// Accounting: every call is one hit or one miss, and the device
	// never calibrated — remote pass-through touches no calibration
	// assets.
	h, m := e.CacheStats()
	if calls := uint64(4 + clients); h+m != calls {
		t.Fatalf("hits %d + misses %d != %d calls", h, m, calls)
	}
	if got := e.CalibrationRuns("V100"); got != 0 {
		t.Fatalf("calibrations = %d, want 0", got)
	}
}
