package engine

import (
	"context"
	"fmt"
	"sync"
)

// call is one in-flight execution of a keyed function.
type call struct {
	done chan struct{}
	val  any
	err  error
}

// group is a minimal singleflight: concurrent Do calls with the same key
// share a single execution of fn, so N goroutines asking for the same
// device's calibration pay for exactly one calibration. Unlike
// golang.org/x/sync/singleflight (not vendored here), completed keys are
// forgotten immediately — memoization is the caller's job.
type group struct {
	mu    sync.Mutex
	calls map[string]*call
}

// Do is DoCtx for callers with no deadline.
//
//lint:allow unlinked contract-test helper: accounting_test.go holds a flight open through it
func (g *group) Do(key string, fn func() (any, error)) (any, error) {
	return g.DoCtx(context.Background(), key, fn)
}

// DoCtx runs fn once per key among concurrent callers and hands every
// caller the same result. The first caller of a key registers the
// flight and owns its execution; later callers join it.
//
// With a cancelable ctx, fn executes on its own goroutine, detached
// from every caller, so a caller whose context expires can abandon the
// wait without aborting (or poisoning) the shared computation — the
// flight runs to completion, its result is stored by fn's own side
// effects, and later requests for the same key hit it. When ctx wins
// the race the returned error is ctx.Err() and val is nil; the flight
// itself is unaffected. A detached fn that panics cannot re-panic on a
// caller's goroutine (the caller may already be gone), so the panic
// surfaces as an error to every waiter.
//
// A ctx that can never be canceled (ctx.Done() == nil, e.g.
// context.Background) makes detachment pointless: the owner runs fn
// inline — no goroutine spawn for a plain Predict or an asset memo —
// and a panic releases the waiters with an error, then
// propagates on the owner's goroutine.
//
// Callers that need executed-vs-joined accounting observe it through a
// flag set inside fn: only the owner's closure runs.
func (g *group) DoCtx(ctx context.Context, key string, fn func() (any, error)) (any, error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = map[string]*call{}
	}
	c, joined := g.calls[key]
	if !joined {
		c = &call{done: make(chan struct{})}
		g.calls[key] = c
	}
	g.mu.Unlock()

	if !joined {
		if ctx.Done() == nil {
			g.run(key, c, fn, true)
			return c.val, c.err
		}
		go g.run(key, c, fn, false)
	}
	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// run executes fn as the owner of flight c. Cleanup is deferred so a
// panicking fn still releases waiters and frees the key instead of
// wedging it forever; waiters see an error, and an inline owner
// (repanic) sees the panic itself.
func (g *group) run(key string, c *call, fn func() (any, error), repanic bool) {
	defer func() {
		r := recover()
		if r != nil {
			c.err = fmt.Errorf("engine: singleflight %q panicked: %v", key, r)
		}
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
		if r != nil && repanic {
			panic(r)
		}
	}()
	c.val, c.err = fn()
}
