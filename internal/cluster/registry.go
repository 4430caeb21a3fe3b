package cluster

import (
	"sort"
	"sync"
	"time"
)

// Worker is one per-device serve process the coordinator can route to.
type Worker struct {
	// ID is the worker's routing identity — the rendezvous hash input.
	// Self-registered workers use their advertised base URL, so the ID
	// is stable across re-registrations of the same process.
	ID string `json:"id"`
	// URL is the worker's base URL (scheme://host:port, no path).
	URL string `json:"url"`
	// Static marks workers from the coordinator's -static-workers list:
	// they are expected alive without heartbeats and rejoin the routing
	// set one liveness window after a failure (self-healing), whereas
	// registered workers must keep heartbeating to stay routable.
	Static bool `json:"static,omitempty"`
}

// workerState is the registry's record of one worker; its heartbeat
// stamps live in the registry's liveTable under the worker ID (static
// workers, which do not heartbeat, have none).
type workerState struct {
	w Worker
	// failedUntil quarantines the worker after a failed route until the
	// given time; a heartbeat lifts it early (the worker proved it is
	// back).
	failedUntil time.Time
}

// Registry is the coordinator's worker set: a static list plus
// self-registered workers with heartbeat liveness. All methods are
// safe for concurrent use.
type Registry struct {
	// live holds the heartbeat stamps, the liveness window and the
	// clock — injectable so liveness-expiry tests advance time instead of
	// sleeping, and shared with the peer Lease a coordinator pairs with
	// this registry.
	live *liveTable

	mu      sync.Mutex
	workers map[string]*workerState
}

// NewRegistry returns an empty registry with the given liveness window
// (0 selects DefaultLiveness).
func NewRegistry(ttl time.Duration) *Registry {
	return &Registry{live: newLiveTable(ttl), workers: map[string]*workerState{}}
}

// TTL reports the liveness window.
func (r *Registry) TTL() time.Duration { return r.live.ttl }

// AddStatic registers a permanent worker by URL (its ID). Static
// workers need no heartbeat; a routing failure quarantines them for
// one liveness window instead of removing them.
func (r *Registry) AddStatic(url string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.workers[url] = &workerState{w: Worker{ID: url, URL: url, Static: true}}
}

// Register records a worker heartbeat, creating the entry on first
// contact, refreshing its liveness, and lifting any failure
// quarantine (the worker just proved it is reachable). It reports
// whether the worker is new to the registry.
func (r *Registry) Register(id, url string) (isNew bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ws, ok := r.workers[id]
	if !ok {
		ws = &workerState{w: Worker{ID: id, URL: url}}
		r.workers[id] = ws
	}
	ws.w.URL = url
	r.live.touch(id)
	ws.failedUntil = time.Time{}
	return !ok
}

// MarkFailed quarantines a worker after a failed route for one
// liveness window, so the very next request is not burned on the same
// dead socket. A registered worker that is actually alive lifts the
// quarantine with its next heartbeat; a static worker rejoins when the
// window lapses (and is re-quarantined if it fails again).
func (r *Registry) MarkFailed(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ws, ok := r.workers[id]; ok {
		ws.failedUntil = r.live.now().Add(r.live.ttl)
	}
}

// status reports one worker's newest heartbeat and whether it is
// currently routable: outside its failure quarantine, and either
// static or heard from within the liveness window.
func (r *Registry) status(ws *workerState, now time.Time) (seen time.Time, routable bool) {
	seen, live := r.live.lastSeen(ws.w.ID, now)
	return seen, !now.Before(ws.failedUntil) && (ws.w.Static || live)
}

// Live returns the currently routable workers, sorted by ID: static
// workers outside their failure quarantine, plus registered workers
// whose last heartbeat is within the liveness window.
func (r *Registry) Live() []Worker {
	now := r.live.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Worker, 0, len(r.workers))
	for _, ws := range r.workers {
		if _, ok := r.status(ws, now); ok {
			out = append(out, ws.w)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// WorkerInfo is one registry entry's observable state, for /stats.
type WorkerInfo struct {
	Worker
	Live bool `json:"live"`
	// LastSeenAgeMs is the age of the newest heartbeat (-1 for static
	// workers, which do not heartbeat).
	LastSeenAgeMs int64 `json:"last_seen_age_ms"`
}

// Snapshot returns every registry entry (live or not), sorted by ID.
func (r *Registry) Snapshot() []WorkerInfo {
	now := r.live.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerInfo, 0, len(r.workers))
	for _, ws := range r.workers {
		seen, ok := r.status(ws, now)
		out = append(out, WorkerInfo{Worker: ws.w, Live: ok, LastSeenAgeMs: ageMs(seen, now)})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}
