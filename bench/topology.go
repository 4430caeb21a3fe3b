package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"dlrmperf"
	"dlrmperf/internal/client"
	"dlrmperf/internal/cluster"
	"dlrmperf/internal/serve"
	"dlrmperf/internal/xsync"
)

// workerIDs are fixed so that rendezvous hashing spreads the three
// devices the same way in every run (2 on one worker, 1 on the other);
// keyed by the workers' ephemeral URLs the split would change from run
// to run, and one run in four would put every device on one worker.
var workerIDs = [...]string{"worker-0", "worker-1"}

// listener is an http.Server on an ephemeral loopback port. It counts
// the connections it accepts: a hop that finds no idle connection in the
// coordinator's pool dials a new one.
type listener struct {
	net.Listener
	accepted atomic.Uint64

	hs   *http.Server
	url  string
	done chan struct{}
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// listen serves h on an ephemeral loopback port until stop.
func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{Listener: ln, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(l) // always ErrServerClosed: stop is the only way out
	}()
	return l, nil
}

// stop closes the listener and every connection and waits for Serve.
func (l *listener) stop() {
	_ = l.hs.Close() // closing twice is harmless
	<-l.done
}

// worker is one in-process serving worker behind a loopback listener.
type worker struct {
	id  string
	eng *dlrmperf.Engine
	srv *serve.Server
	ln  *listener
}

// topology is the serving system under test, wired as
// cmd/dlrmperf-serve wires it: one coordinator with a pass-through
// result cache in front of two fast-calibration workers, every hop over
// real loopback TCP, all in this process.
type topology struct {
	workers  []*worker
	reg      *cluster.Registry
	cacheEng *dlrmperf.Engine
	coord    *cluster.Coordinator
	coordLn  *listener

	// front is the load generator's client: one connection per closed-loop client.
	front   *client.Client
	frontTR *http.Transport

	// ref answers every request the harness checks. It never
	// calibrates: it is warm-started from the workers' own assets, so
	// by the warm-start contract it predicts bit-identically.
	ref *dlrmperf.Engine
}

// newTopology builds the system, serves every first touch through the
// front door and warm-starts the reference engine. With tr set, the
// harness's wrappers sit at every public seam (recording nothing until
// tr is switched on).
func newTopology(ctx context.Context, seed uint64, tr *tracer) (_ *topology, err error) {
	t := &topology{reg: cluster.NewRegistry(24 * time.Hour)} // no heartbeats: nothing may expire mid-run
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	for _, id := range workerIDs {
		eng, err := dlrmperf.NewEngineWith(dlrmperf.FastCalibConfig(seed, 0))
		if err != nil {
			return nil, err
		}
		var backend serve.Backend = eng
		if tr != nil {
			backend = &tracedBackend{Engine: eng, t: tr}
		}
		w := &worker{id: id, eng: eng, srv: serve.New(serve.Config{Backend: backend})}
		t.workers = append(t.workers, w)
		h := w.srv.Handler()
		if tr != nil {
			h = tr.workerHandler(h)
		}
		if w.ln, err = listen(h); err != nil {
			return nil, err
		}
		t.reg.Register(w.id, w.ln.url)
	}

	if t.cacheEng, err = dlrmperf.NewEngineWith(dlrmperf.EngineConfig{Seed: seed}); err != nil {
		return nil, err
	}
	var cache cluster.ResultCache = t.cacheEng
	if tr != nil {
		cache = &tracedCache{ResultCache: t.cacheEng, t: tr}
	}
	t.coord = cluster.New(cluster.Config{Registry: t.reg, Cache: cache})
	h := t.coord.Handler()
	if tr != nil {
		h = tr.coordinatorHandler(h)
	}
	if t.coordLn, err = listen(h); err != nil {
		return nil, err
	}

	t.frontTR = &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
		MaxConnsPerHost:     numClients,
		MaxIdleConnsPerHost: numClients,
	}
	var rt http.RoundTripper = t.frontTR
	if tr != nil {
		rt = &frontTransport{base: t.frontTR, t: tr}
	}
	t.front = client.New(t.coordLn.url, client.WithHTTPClient(&http.Client{Transport: rt}))

	// First touches, through the front door: each device calibrates on
	// its rendezvous owner and every overhead database is collected.
	touches := firstTouches()
	errs := make([]error, len(touches))
	xsync.ForEachN(len(touches), numClients, func(i int) {
		row, err := t.front.Predict(ctx, touches[i])
		if err == nil && row.Error != "" {
			err = errors.New(row.Error)
		}
		errs[i] = err
	})
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("first touch: %w", err)
	}

	if t.ref, err = dlrmperf.NewEngineWith(dlrmperf.FastCalibConfig(seed, 0)); err != nil {
		return nil, err
	}
	owners := map[string]bool{}
	for _, d := range dlrmperf.Devices() {
		owner := t.owner(d)
		owners[owner.id] = true
		assets, err := owner.eng.SaveAssets(d)
		if err != nil {
			return nil, err
		}
		if err := t.ref.LoadAssets(assets); err != nil {
			return nil, err
		}
	}
	if len(owners) != len(t.workers) {
		return nil, fmt.Errorf("rendezvous left a worker without a device: owners %v", owners)
	}
	return t, nil
}

// owner is the worker the coordinator routes a device to.
func (t *topology) owner(device string) *worker {
	id := cluster.Rank(t.reg.Live(), device)[0].ID
	for _, w := range t.workers {
		if w.id == id {
			return w
		}
	}
	panic("bench: rendezvous ranked an unknown worker " + id)
}

// close stops every listener and worker pool and drops the connections.
func (t *topology) close() {
	if t.frontTR != nil {
		t.frontTR.CloseIdleConnections()
	}
	if t.coord != nil {
		t.coord.Drain(false)
	}
	if t.coordLn != nil {
		t.coordLn.stop()
	}
	for _, w := range t.workers {
		if w.ln != nil {
			w.ln.stop()
		}
		w.srv.Drain()
	}
}
