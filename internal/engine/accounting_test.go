package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
)

// counters is the accounting surface every request entry point shares:
// the result-class hit/miss pair, validation rejects, and how many
// times the entry point's builder actually ran.
type counters struct {
	hits, misses, rejected, builds uint64
}

// entryPoint drives one way into Engine.request, so the same outcome
// table can run against all of them.
type entryPoint struct {
	name string
	// prefix is the entry point's result-class (and flight) key prefix.
	prefix string
	// value is what a finished flight of this entry point holds.
	value any
	// call serves req and reports whether it was a cache hit.
	call func(x *accountingRun, ctx context.Context, req Request) (hit bool, err error)
	// builds reports how many times the builder has run.
	builds func(x *accountingRun) uint64
}

var errWorkerDown = errors.New("worker down")

// entryPoints are Predict and RemoteResult. The local builder's run count is read off the
// calibrations class (predictScenario asks for the device's calibration
// exactly once per run, and nothing under it asks again); the remote
// fetch counts itself, and fails for the device the local
// builder cannot compile either, so "a build that fails" is one request
// on every entry point.
func entryPoints() []entryPoint {
	localBuilds := func(x *accountingRun) uint64 {
		c := x.e.AssetStats().Class("calibrations")
		return c.Hits + c.Misses
	}
	return []entryPoint{
		{
			name: "Predict", prefix: "predict/", value: cached{},
			call: func(x *accountingRun, ctx context.Context, req Request) (bool, error) {
				r := x.e.PredictCtx(ctx, req)
				return r.CacheHit, r.Err
			},
			builds: localBuilds,
		},
		{
			name: "RemoteResult", prefix: "remote/", value: "row",
			call: func(x *accountingRun, ctx context.Context, req Request) (bool, error) {
				_, hit, err := x.e.RemoteResult(ctx, req, func() (any, error) {
					x.fetches.Add(1)
					if req.Device == "H100" {
						return nil, errWorkerDown
					}
					return "row", nil
				})
				return hit, err
			},
			builds: func(x *accountingRun) uint64 { return x.fetches.Load() },
		},
	}
}

// accountingRun is one (entry point, outcome) cell: a fresh engine, the
// entry point under test, and the baseline the deltas are taken from.
type accountingRun struct {
	t       *testing.T
	e       *Engine
	ep      entryPoint
	base    counters
	fetches atomic.Uint64
}

func (x *accountingRun) now() counters {
	h, m := x.e.CacheStats()
	return counters{h, m, x.e.RejectedRequests(), x.ep.builds(x)}
}

// mark moves the baseline past a scenario's setup traffic.
func (x *accountingRun) mark() { x.base = x.now() }

func (x *accountingRun) call(ctx context.Context, req Request) (bool, error) {
	return x.ep.call(x, ctx, req)
}

// occupy registers a test-controlled flight under the entry point's key
// for req, so the call under test joins instead of executing. finish
// completes it; a successful flight also stores its value the way a
// real one does, so a caller that arrives after the flight is still
// served from memory and the cell's verdict does not depend on timing.
func (x *accountingRun) occupy(req Request) (finish func(err error)) {
	key := x.ep.prefix + req.Key()
	started, block, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var ferr error
	go func() {
		defer close(done)
		_, _ = x.e.flight.DoCtx(context.Background(), key, func() (any, error) {
			close(started)
			<-block
			if ferr != nil {
				return nil, ferr
			}
			x.e.store.class(classResult).put(key, x.ep.value, 1)
			return x.ep.value, nil
		})
	}()
	<-started
	return func(err error) {
		ferr = err
		close(block)
		<-done
	}
}

// whileWaiting starts the call under test, waits until it has joined
// the flight occupy registered for req, runs during, and returns the
// call's verdict.
func (x *accountingRun) whileWaiting(ctx context.Context, req Request, during func()) (bool, error) {
	type verdict struct {
		hit bool
		err error
	}
	ch := make(chan verdict, 1)
	go func() {
		hit, err := x.call(ctx, req)
		ch <- verdict{hit, err}
	}()
	awaitJoiners(x.t, &x.e.flight, x.ep.prefix+req.Key(), 1)
	during()
	v := <-ch
	return v.hit, v.err
}

// TestRequestAccountingContract is the property the engine's five
// cache-then-flight copies each re-implemented, now stated once: every
// way into the request path — Predict and RemoteResult —
// moves the SAME counters for the same outcome. One validated request
// is exactly one hit or one miss; a reject is a reject and nothing
// else; cancellation is a miss that returns the context's error; the
// builder runs only when the outcome says it ran.
func TestRequestAccountingContract(t *testing.T) {
	ok := NewRequest(hw.V100, models.NameDLRMDefault, 256)
	failing := NewRequest("H100", models.NameDLRMDefault, 256) // validates, cannot build
	invalid := NewRequest(hw.V100, models.NameDLRMDefault, 256)
	invalid.Scenario.Comm = "pcie" // comm on a single-device spec: same key as ok
	bg := context.Background()

	cases := []struct {
		name string
		run  func(x *accountingRun)
		want counters
	}{
		{
			name: "resident hit",
			run: func(x *accountingRun) {
				if _, err := x.call(bg, ok); err != nil {
					x.t.Fatal(err)
				}
				x.mark()
				if hit, err := x.call(bg, ok); err != nil || !hit {
					x.t.Errorf("repeat = (hit %v, %v), want a hit", hit, err)
				}
			},
			want: counters{hits: 1},
		},
		{
			name: "executed miss",
			run: func(x *accountingRun) {
				if hit, err := x.call(bg, ok); err != nil || hit {
					x.t.Errorf("first = (hit %v, %v), want a computed miss", hit, err)
				}
			},
			want: counters{misses: 1, builds: 1},
		},
		{
			name: "successful join",
			run: func(x *accountingRun) {
				finish := x.occupy(ok)
				hit, err := x.whileWaiting(bg, ok, func() { finish(nil) })
				if err != nil || !hit {
					x.t.Errorf("joiner = (hit %v, %v), want a hit", hit, err)
				}
			},
			want: counters{hits: 1},
		},
		{
			name: "failed build",
			run: func(x *accountingRun) {
				if _, err := x.call(bg, failing); err == nil {
					x.t.Error("unbuildable request served")
				}
				// Failures are never stored: the repeat builds (and fails) again.
				if hit, err := x.call(bg, failing); err == nil || hit {
					x.t.Errorf("repeat of a failure = (hit %v, %v), want a fresh failing miss", hit, err)
				}
			},
			want: counters{misses: 2, builds: 2},
		},
		{
			name: "joined a failed build",
			run: func(x *accountingRun) {
				finish := x.occupy(ok)
				_, err := x.whileWaiting(bg, ok, func() { finish(errWorkerDown) })
				if !errors.Is(err, errWorkerDown) {
					x.t.Errorf("joiner err = %v, want the flight's error", err)
				}
			},
			want: counters{misses: 1},
		},
		{
			name: "canceled at entry",
			run: func(x *accountingRun) {
				ctx, cancel := context.WithCancel(bg)
				cancel()
				if _, err := x.call(ctx, ok); !errors.Is(err, context.Canceled) {
					x.t.Errorf("err = %v, want context.Canceled", err)
				}
			},
			want: counters{misses: 1},
		},
		{
			name: "canceled while waiting",
			run: func(x *accountingRun) {
				finish := x.occupy(ok)
				ctx, cancel := context.WithCancel(bg)
				_, err := x.whileWaiting(ctx, ok, cancel)
				if !errors.Is(err, context.Canceled) {
					x.t.Errorf("err = %v, want context.Canceled", err)
				}
				finish(errWorkerDown)
			},
			want: counters{misses: 1},
		},
		{
			name: "validation reject",
			run: func(x *accountingRun) {
				// Warm the valid twin first: the reject must not be served
				// its row (the key is the same — validation comes first).
				if _, err := x.call(bg, ok); err != nil {
					x.t.Fatal(err)
				}
				x.mark()
				if hit, err := x.call(bg, invalid); err == nil || hit {
					x.t.Errorf("invalid request = (hit %v, %v), want a rejection", hit, err)
				}
			},
			want: counters{rejected: 1},
		},
	}

	for _, ep := range entryPoints() {
		for _, tc := range cases {
			t.Run(ep.name+"/"+tc.name, func(t *testing.T) {
				x := &accountingRun{t: t, e: New(tinyOptions(7)), ep: ep}
				tc.run(x)
				got, b := x.now(), x.base
				delta := counters{got.hits - b.hits, got.misses - b.misses, got.rejected - b.rejected,
					got.builds - b.builds}
				if delta != tc.want {
					t.Errorf("counter deltas = %+v, want %+v", delta, tc.want)
				}
			})
		}
	}
}
