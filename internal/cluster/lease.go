package cluster

import (
	"context"
	"errors"
	"net/http"
	"slices"
	"strings"
	"time"

	"dlrmperf/internal/serve"
)

// Coordinator replication. A coordinator configured with a static peer
// list (Config.Self + Config.Peers) joins a replication group built on
// a leader lease that sits on the same liveness primitive as the
// worker registry — one window, one injectable clock, no consensus
// protocol.
//
// Leadership is deterministic: every coordinator ranks the candidate
// set — itself plus every peer seen alive within the lease window — and
// the lowest URL holds the lease. Proof of life is passive and active
// at once: a successful probe (StartPeerProbes), an inbound replicated
// entry, and a delivered outbound one all refresh a peer's lease
// entry. When the leader stops answering, its entry ages out of every
// follower's window and the next-lowest live coordinator is — by the
// shared rule, without an election round trip — the new leader.
//
// Writes and reads split the classic way: reads (routing, stats,
// cache lookups) are answered locally on every coordinator, while
// writes flow toward the leader. A worker registration landing on a
// follower is applied locally (its own routing table must not lag its
// own observations) and forwarded to the leader, which replicates it to
// every peer — so wherever a worker registers, the whole group routes
// to it within one beat. Because the leader is always the lowest live
// URL, forwarding chains strictly descend and can never cycle.
//
// Replicated state is one record shape, entry, carrying exactly one of
// three payloads, delivered to one apply-only peer endpoint (it never
// re-forwards, so replication cannot loop):
//
//	POST /v1/peers/apply  {from, registration} -> Registry.Register
//	                      {from, request, row} -> ResultCache.InstallRemoteResult
//	                      {from, assets}       -> assetVault.put
//
// The coordinator where a change originates applies it through the
// same apply and replicates it only if it changed local state. Result
// rows replicate from whichever coordinator fetched them (commutative,
// idempotent — no leader needed), which is what makes a repeat of any
// fingerprint a local cache hit on every coordinator: killing the
// leader mid-run loses no cached results.

// Lease is the coordinator group's leader lease: the static peer set
// with last-proof-of-life stamps in a liveTable. It takes its clock
// and window from the worker registry it is paired with, so one
// injected clock moves worker expiry and leadership together.
type Lease struct {
	self  string
	peers []string // static and sorted; never modified after NewLease
	live  *liveTable
}

// NewLease returns a lease over the static peer set, on reg's clock
// and liveness window. self is this coordinator's own advertised URL;
// it is excluded from peers if listed there.
func NewLease(self string, peers []string, reg *Registry) *Lease {
	l := &Lease{self: strings.TrimRight(strings.TrimSpace(self), "/"), live: reg.live.sibling()}
	for _, p := range peers {
		if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" && p != l.self {
			l.peers = append(l.peers, p)
		}
	}
	slices.Sort(l.peers)
	l.peers = slices.Compact(l.peers)
	return l
}

// Self reports this coordinator's own URL.
func (l *Lease) Self() string { return l.self }

// Peers lists the configured peer URLs, sorted. The slice is shared:
// callers must not modify it.
func (l *Lease) Peers() []string { return l.peers }

// MarkSeen records proof of life for a peer (successful probe, inbound
// replicated entry, or a delivered outbound one). Unknown URLs are
// ignored — the peer set is static by design.
func (l *Lease) MarkSeen(peer string) {
	peer = strings.TrimRight(peer, "/")
	if _, ok := slices.BinarySearch(l.peers, peer); ok {
		l.live.touch(peer)
	}
}

// Leader returns the lease holder: the lowest URL among this
// coordinator and every peer seen within the window. With no live
// peers (or no peers at all) that is self — a group of one leads
// itself.
//
// Every coordinator write checks the lease here.
//
//lint:hotpath root
func (l *Lease) Leader() string {
	now := l.live.now()
	for _, p := range l.peers { // ascending: the first live peer below self is the minimum
		if p >= l.self {
			break
		}
		if _, live := l.live.lastSeen(p, now); live {
			return p
		}
	}
	return l.self
}

// PeerStatus is one peer's row in the lease snapshot.
type PeerStatus struct {
	URL  string `json:"url"`
	Live bool   `json:"live"`
	// LastSeenAgeMs is the age of the newest proof of life (-1: never).
	LastSeenAgeMs int64 `json:"last_seen_age_ms"`
}

// LeaseStatus is the lease block of the coordinator /stats document.
type LeaseStatus struct {
	Self     string       `json:"self"`
	Leader   string       `json:"leader"`
	IsLeader bool         `json:"is_leader"`
	TTLMs    int64        `json:"ttl_ms"`
	Peers    []PeerStatus `json:"peers,omitempty"`
}

// Snapshot assembles the lease's observable state, peers sorted. Safe
// on a nil lease (single-coordinator mode), where it reports nothing.
func (l *Lease) Snapshot() *LeaseStatus {
	if l == nil {
		return nil
	}
	leader := l.Leader()
	now := l.live.now()
	st := &LeaseStatus{Self: l.self, Leader: leader, IsLeader: leader == l.self, TTLMs: l.live.ttl.Milliseconds()}
	for _, p := range l.peers {
		seen, live := l.live.lastSeen(p, now)
		st.Peers = append(st.Peers, PeerStatus{URL: p, Live: live, LastSeenAgeMs: ageMs(seen, now)})
	}
	return st
}

// entry is the one replicated, apply-only record of the control plane.
// Exactly one payload is set: a worker registration, a fetched result
// row with the request that keys it, or a worker asset export. From
// names the origin coordinator — a receipt doubles as its proof of
// life — and is empty while the origin applies its own change.
type entry struct {
	From         string              `json:"from,omitempty"`
	Registration *serve.Registration `json:"registration,omitempty"`
	Request      *serve.Request      `json:"request,omitempty"`
	Row          *serve.Result       `json:"row,omitempty"`
	Assets       *serve.AssetPush    `json:"assets,omitempty"`
}

// apply validates one entry and installs it into local state,
// reporting whether that state changed — the origin's signal to
// replicate it. It is the only writer of replicated state, shared by
// the origin paths (handleRegister, handleWorkerAssets) and the peer
// endpoint, so both reject a malformed payload the same way.
func (c *Coordinator) apply(e entry) (changed bool, err error) {
	switch {
	case e.Registration != nil:
		reg := e.Registration
		if reg.URL == "" {
			return false, errors.New("registration url is required")
		}
		if reg.ID == "" {
			reg.ID = reg.URL
		}
		c.reg.Register(reg.ID, reg.URL)
		return true, nil // a heartbeat always moves the liveness stamp
	case e.Assets != nil:
		p := e.Assets
		if p.ID == "" || p.Device == "" || len(p.Assets) == 0 {
			return false, errors.New("asset push id, device, and assets are required")
		}
		return c.vault.put(p.Device, p.ID, p.Epoch, p.Assets), nil
	case e.Request != nil && e.Row != nil:
		if e.Row.Error != "" {
			return false, nil // a failed row: never cached
		}
		if !c.cfg.Cache.InstallRemoteResult(e.Request.ToPredict(), answerOf(e.Row)) {
			return false, errors.New("result row for a request no worker would serve")
		}
		c.peerResultsInstalled.Add(1)
		return true, nil
	}
	return false, errors.New("entry carries no registration, result, or assets")
}

// share is the origin path of a client-facing control-plane write:
// apply it here, replicate it if it changed anything, and answer a
// malformed one with 400. ok is false once a response has been written.
func (c *Coordinator) share(w http.ResponseWriter, e entry) (ok bool) {
	changed, err := c.apply(e)
	if err != nil {
		serve.WriteError(w, serve.Refusal(http.StatusBadRequest, "bad_request", err.Error()), 0)
		return false
	}
	if changed {
		c.replicate(e)
	}
	return true
}

// replicate shares an entry this coordinator originated with the
// group, asynchronously and best-effort: replication is an
// optimization over re-fetching (results), the next heartbeat
// (registrations), or the next push (assets), so a lost message heals
// itself. A delivered message marks the peer alive. Result rows and
// asset exports fan out to every peer. A registration is a write: the
// leader fans it out, while a follower forwards it to the leader's own
// registration endpoint, which applies and fans it out — forwarding
// targets are always strictly lower URLs, so chains descend and
// terminate at the group minimum.
func (c *Coordinator) replicate(e entry) {
	if c.lease == nil {
		return
	}
	if e.Registration != nil {
		if leader := c.lease.Leader(); leader != c.lease.Self() {
			c.detach(func(ctx context.Context) {
				if c.workerClient(leader).Register(ctx, e.Registration.ID, e.Registration.URL) == nil {
					c.lease.MarkSeen(leader)
				}
			})
			return
		}
	}
	e.From = c.lease.Self()
	for _, peer := range c.lease.Peers() {
		c.detach(func(ctx context.Context) {
			if c.workerClient(peer).PostJSON(ctx, "/v1/peers/apply", e, nil) == nil {
				c.lease.MarkSeen(peer)
			}
		})
	}
}

// handlePeerApply is the peer endpoint. Apply-only: it installs the
// entry locally and never re-forwards, so replication cannot loop.
func (c *Coordinator) handlePeerApply(w http.ResponseWriter, r *http.Request) {
	var e entry
	if !serve.DecodeBody(w, r, &e) {
		return
	}
	c.lease.MarkSeen(e.From)
	if _, err := c.apply(e); err != nil {
		serve.WriteError(w, serve.Refusal(http.StatusBadRequest, "bad_request", err.Error()), 0)
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "applied"})
}

// StartPeerProbes actively probes every peer's GET /healthz every
// interval (default 2s), refreshing the lease on success, until the
// returned stop function is called or ctx is canceled. Probing is the
// liveness floor — an idle group with no replication traffic still
// converges on a leader — and the heal path: a restarted peer is seen
// within one probe interval.
func (c *Coordinator) StartPeerProbes(ctx context.Context, interval time.Duration) (stop func()) {
	if c.lease == nil {
		return func() {}
	}
	return every(ctx, interval, func() {
		for _, peer := range c.lease.Peers() {
			pctx, cancel := context.WithTimeout(ctx, statsTimeout)
			h, err := c.workerClient(peer).Healthz(pctx)
			cancel()
			// A draining peer answers but is leaving the group: it must
			// not be (re-)elected leader, so only "ok" refreshes its lease.
			if err == nil && h.Status == "ok" {
				c.lease.MarkSeen(peer)
			}
		}
	})
}
