// Package atomicfield is the seeded fixture for the ctxflow analyzer's
// sync/atomic rule, which holds in every package: a sync/atomic
// function call carries a want expectation; a typed atomic must stay
// quiet. The package carries no //lint:ctxflow directive, so a minted
// context here stays quiet too.
package atomicfield

import (
	"context"
	"sync/atomic"
)

type counters struct {
	hits  int64
	typed atomic.Int64
}

// IncHits operates on a plain word through a sync/atomic function:
// flagged, since a plain read of hits elsewhere would race it.
func (c *counters) IncHits() {
	atomic.AddInt64(&c.hits, 1) // want `atomic\.AddInt64 on a plain word`
}

// LoadHits reads the plain word through a sync/atomic function:
// flagged like the write.
func (c *counters) LoadHits() int64 {
	return atomic.LoadInt64(&c.hits) // want `atomic\.LoadInt64 on a plain word`
}

// IncTyped uses a typed atomic, whose every access is atomic: quiet.
func (c *counters) IncTyped() int64 {
	return c.typed.Add(1)
}

// Root mints a context outside the serving layers: quiet.
func Root() context.Context {
	return context.Background()
}
