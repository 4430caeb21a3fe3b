package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dlrmperf"
	"dlrmperf/internal/cluster"
)

// layer is one boundary on the path of a request. The order is the
// nesting order: a span of layer k lies inside a span of layer k-1 of
// the same operation.
type layer int

const (
	layerClient  layer = iota // the harness's call into internal/client
	layerFront                // front socket: RoundTripper on the client's http.Client
	layerCluster              // Coordinator.Handler()
	layerCache                // cluster.Config.Cache RemoteResult
	layerHop                  // the cache's fetch: route, hop client, hop socket
	layerServe                // Server.Handler() on a worker
	layerEngine               // serve.Config.Backend PredictContext
	numLayers
)

var layerNames = [numLayers]string{"client", "http.front", "cluster", "cluster.cache", "cluster.hop", "serve", "engine"}

// span is one timed interval at a layer boundary. Spans of one client
// call share Op; Parent is the span that caused this one.
type span struct {
	Op      uint64 `json:"op"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Hit marks an engine span answered from the result cache.
	Hit   bool `json:"hit,omitempty"`
	layer layer
}

// spanRef is what rides the context (in-process) and the X-Bench-Span
// header (across the front socket).
type spanRef struct{ op, id uint64 }

type spanKey struct{}

const spanHeader = "X-Bench-Span"

// tracer records spans from the harness's own wrappers around the
// public seams of each layer. It is installed only in a traced run and
// records only while on; the timed window always runs with it off.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Uint64
	epoch  time.Time

	mu    sync.Mutex
	spans []span

	// hops maps a request identity to the hop span forwarding it right
	// now. The coordinator's cache collapses identical concurrent
	// requests into one fetch, so the identity is unique while it is
	// here; the worker-side wrappers look their operation up in it.
	// A header on the hop would need a RoundTripper in
	// cluster.Config.Client, which replaces the transport the
	// coordinator builds for itself and so measures another program.
	hops sync.Map // dlrmperf.PredictRequest -> spanRef

	// Counts and bytes at the same boundaries. Calls count always, so
	// that the timed window has them; bytes count while tracing.
	clusterCalls, serveCalls, engineCalls atomic.Uint64
	frontReq, frontResp, hopReq, hopResp  atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a span that has started.
type open struct {
	t *tracer
	s span
}

// begin starts a span under the span found in ctx. ok is false when
// tracing is off or ctx belongs to no traced operation.
func (t *tracer) begin(ctx context.Context, l layer) (context.Context, *open, bool) {
	if !t.on.Load() {
		return ctx, nil, false
	}
	parent, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		return ctx, nil, false
	}
	o := t.start(parent, l)
	return context.WithValue(ctx, spanKey{}, spanRef{o.s.Op, o.s.ID}), o, true
}

// root starts a new operation: the client span of one call.
func (t *tracer) root(ctx context.Context) (context.Context, *open) {
	id := t.nextID.Add(1)
	o := &open{t: t, s: span{Op: id, ID: id, Layer: layerNames[layerClient], layer: layerClient, StartNs: t.now()}}
	return context.WithValue(ctx, spanKey{}, spanRef{id, id}), o
}

func (t *tracer) start(parent spanRef, l layer) *open {
	return &open{t: t, s: span{
		Op: parent.op, ID: t.nextID.Add(1), Parent: parent.id,
		Layer: layerNames[l], layer: l, StartNs: t.now(),
	}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (o *open) end() {
	o.s.EndNs = o.t.now()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// take returns the recorded spans and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// frontTransport is the RoundTripper on the load generator's own
// http.Client. Its span ends when the response body is closed, so it
// covers the whole exchange on the front socket.
type frontTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (f *frontTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ctx, sp, ok := f.t.begin(r.Context(), layerFront)
	if !ok {
		return f.base.RoundTrip(r)
	}
	r = r.Clone(ctx)
	r.Header.Set(spanHeader, strconv.FormatUint(sp.s.Op, 10)+"-"+strconv.FormatUint(sp.s.ID, 10))
	resp, err := f.base.RoundTrip(r)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	sp   *open
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.sp.end)
	return err
}

// countingWriter counts the response bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func parseSpanHeader(h string) (spanRef, bool) {
	op, id, ok := strings.Cut(h, "-")
	if !ok {
		return spanRef{}, false
	}
	o, err1 := strconv.ParseUint(op, 10, 64)
	i, err2 := strconv.ParseUint(id, 10, 64)
	return spanRef{o, i}, err1 == nil && err2 == nil
}

func isPredict(r *http.Request) bool {
	return r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/predict")
}

// coordinatorHandler wraps Coordinator.Handler(): the operation arrives
// in the X-Bench-Span header the front transport set.
func (t *tracer) coordinatorHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !isPredict(r) {
			next.ServeHTTP(w, r)
			return
		}
		t.clusterCalls.Add(1)
		parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
		if !ok || !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		sp := t.start(parent, layerCluster)
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{sp.s.Op, sp.s.ID})))
		sp.end()
		t.frontReq.Add(r.ContentLength)
		t.frontResp.Add(cw.n)
	})
}

// tracedCache wraps cluster.Config.Cache. The fetch it is handed is the
// coordinator's forward to a worker; wrapping it gives the hop span and
// registers the request identity for the worker side.
type tracedCache struct {
	cluster.ResultCache
	t *tracer
}

func (c *tracedCache) RemoteResult(ctx context.Context, req dlrmperf.PredictRequest, fetch func() (any, error)) (any, bool, error) {
	ctx, sp, ok := c.t.begin(ctx, layerCache)
	if !ok {
		return c.ResultCache.RemoteResult(ctx, req, fetch)
	}
	defer sp.end()
	return c.ResultCache.RemoteResult(ctx, req, func() (any, error) {
		hop := c.t.start(spanRef{sp.s.Op, sp.s.ID}, layerHop)
		c.t.hops.Store(req, spanRef{hop.s.Op, hop.s.ID})
		defer func() {
			c.t.hops.Delete(req)
			hop.end()
		}()
		return fetch()
	})
}

// pendingServe is the worker handler's span before its operation is
// known: the request body is decoded inside the handler, so the backend
// wrapper, which sees the decoded request, fills the operation in.
type pendingServe struct {
	mu     sync.Mutex
	parent spanRef
	id     uint64
	known  bool
}

type pendingKey struct{}

// workerHandler wraps Server.Handler() on a worker.
func (t *tracer) workerHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !isPredict(r) {
			next.ServeHTTP(w, r)
			return
		}
		t.serveCalls.Add(1)
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		p := &pendingServe{id: t.nextID.Add(1)}
		start := t.now()
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), pendingKey{}, p)))
		end := t.now()
		p.mu.Lock()
		parent, known := p.parent, p.known
		p.mu.Unlock()
		if !known {
			return // no backend call matched a traced hop
		}
		t.mu.Lock()
		t.spans = append(t.spans, span{
			Op: parent.op, ID: p.id, Parent: parent.id,
			Layer: layerNames[layerServe], layer: layerServe, StartNs: start, EndNs: end,
		})
		t.mu.Unlock()
		t.hopReq.Add(r.ContentLength)
		t.hopResp.Add(cw.n)
	})
}

// tracedBackend wraps serve.Config.Backend. Embedding the engine keeps
// the rest of the Backend surface and LoadAssets as they are.
type tracedBackend struct {
	*dlrmperf.Engine
	t *tracer
}

func (b *tracedBackend) PredictContext(ctx context.Context, req dlrmperf.PredictRequest) dlrmperf.PredictResult {
	b.t.engineCalls.Add(1)
	if !b.t.on.Load() {
		return b.Engine.PredictContext(ctx, req)
	}
	p, _ := ctx.Value(pendingKey{}).(*pendingServe)
	hop, ok := b.t.hops.Load(req)
	if p == nil || !ok {
		return b.Engine.PredictContext(ctx, req)
	}
	p.mu.Lock()
	p.parent, p.known = hop.(spanRef), true
	p.mu.Unlock()
	sp := b.t.start(spanRef{hop.(spanRef).op, p.id}, layerEngine)
	res := b.Engine.PredictContext(ctx, req)
	sp.s.Hit = res.CacheHit
	sp.end()
	return res
}

// attribution is what one traced pass says about where time went.
type attribution struct {
	// total is the client span of each operation, in microseconds;
	// self[l][i] is the part of total[i] attributed to layer l.
	total []float64
	self  [numLayers][]float64
	// engineMiss is the duration of each engine call that computed its
	// answer, in microseconds.
	engineMiss []float64
}

// medianOp is the self time of each layer in the median operation: the
// mean over the operations whose total lies between the 40th and 60th
// percentile. Medians taken layer by layer do not add up when the
// operations are of several kinds (a DLRM and a CNN miss, a batch with
// few and with many hits); these rows sum to the band's mean total,
// which is the traced p50 to within the width of the band.
func (a *attribution) medianOp() (self [numLayers]float64) {
	lo, hi := quantile(a.total, 0.4), quantile(a.total, 0.6)
	n := 0.0
	for i, t := range a.total {
		if t < lo || t > hi {
			continue
		}
		n++
		for l := range self {
			self[l] += a.self[l][i]
		}
	}
	for l := range self {
		self[l] = share(self[l], n)
	}
	return self
}

// attribute splits every operation's wall time among the layers. At any
// instant the time belongs to the deepest layers that are active: with
// n[k] spans of layer k open, n[k]-n[k+1] of them have no child open,
// and the instant is shared among all such spans. For a request that
// runs one layer at a time this is exactly "span minus children"; for a
// batch whose rows overlap it still sums to the client span exactly.
func attribute(spans []span) attribution {
	byOp := map[uint64][]span{}
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	ops := make([]uint64, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })

	var a attribution
	type edge struct {
		at    int64
		layer layer
		delta int
	}
	for _, op := range ops {
		var root *span
		edges := make([]edge, 0, 2*len(byOp[op]))
		for i, s := range byOp[op] {
			if s.layer == layerClient {
				root = &byOp[op][i]
			}
			edges = append(edges, edge{s.StartNs, s.layer, +1}, edge{s.EndNs, s.layer, -1})
			if s.layer == layerEngine && !s.Hit {
				a.engineMiss = append(a.engineMiss, float64(s.EndNs-s.StartNs)/1e3)
			}
		}
		if root == nil {
			continue
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
		var n [numLayers + 1]int
		var credit [numLayers]float64
		for i, e := range edges {
			if i > 0 && e.at > edges[i-1].at {
				dt := float64(e.at-edges[i-1].at) / 1e3
				leaves := 0
				for l := layer(0); l < numLayers; l++ {
					if d := n[l] - n[l+1]; d > 0 {
						leaves += d
					}
				}
				for l := layer(0); l < numLayers && leaves > 0; l++ {
					if d := n[l] - n[l+1]; d > 0 {
						credit[l] += dt * float64(d) / float64(leaves)
					}
				}
			}
			n[e.layer] += e.delta
		}
		a.total = append(a.total, float64(root.EndNs-root.StartNs)/1e3)
		for l := range credit {
			a.self[l] = append(a.self[l], credit[l])
		}
	}
	return a
}

// writeTrace writes the spans of a traced pass, capped so that the file
// stays small enough to read.
func writeTrace(path string, spans []span) error {
	const maxSpans = 20000
	if len(spans) > maxSpans {
		spans = spans[:maxSpans]
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
