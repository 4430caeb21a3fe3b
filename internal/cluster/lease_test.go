package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dlrmperf"
	"dlrmperf/internal/client"
)

// TestLeaseLeaderElection pins the lease rule with an injected clock:
// the leader is the lowest URL among self and the peers seen within
// the window, a group of one leads itself, expiry hands the lease
// over deterministically, and a fresh proof of life hands it back —
// no sleeping, no election round trips.
func TestLeaseLeaderElection(t *testing.T) {
	now := time.Unix(3000, 0)
	l := NewLease("http://b", []string{"http://a", "http://c", "http://b"}, NewRegistry(5*time.Second))
	l.live.now = func() time.Time { return now }

	// Self is excluded from its own peer set; never-seen peers are dead.
	if peers := l.Peers(); len(peers) != 2 || peers[0] != "http://a" || peers[1] != "http://c" {
		t.Fatalf("peers = %v, want [http://a http://c]", peers)
	}
	if got := l.Leader(); got != "http://b" || !isLeader(l) {
		t.Fatalf("leader with no live peers = %q, want self", got)
	}

	// A live lower peer takes the lease; a live higher one does not.
	l.MarkSeen("http://c")
	if got := l.Leader(); got != "http://b" {
		t.Fatalf("leader with live higher peer = %q, want self", got)
	}
	l.MarkSeen("http://a")
	if got := l.Leader(); got != "http://a" || isLeader(l) {
		t.Fatalf("leader with live lower peer = %q, want http://a", got)
	}

	// One window later with no proof of life, the lease hands over to
	// the next-lowest live URL — here, self again.
	now = now.Add(5*time.Second + time.Millisecond)
	if got := l.Leader(); got != "http://b" || !isLeader(l) {
		t.Fatalf("leader after expiry = %q, want self", got)
	}

	// A fresh proof of life hands it straight back.
	l.MarkSeen("http://a")
	if got := l.Leader(); got != "http://a" {
		t.Fatalf("leader after revival = %q, want http://a", got)
	}

	// Unknown URLs are ignored — the peer set is static.
	l.MarkSeen("http://intruder")
	if peers := l.Peers(); len(peers) != 2 {
		t.Fatalf("peer set grew to %v after unknown MarkSeen", peers)
	}
}

// TestLeaseSnapshot: the stats block reports self, the computed
// leader, and per-peer liveness with ages; a nil lease (single
// coordinator) snapshots to nil so the stats field is omitted.
func TestLeaseSnapshot(t *testing.T) {
	now := time.Unix(4000, 0)
	l := NewLease("http://b", []string{"http://a"}, NewRegistry(5*time.Second))
	l.live.now = func() time.Time { return now }
	l.MarkSeen("http://a")
	now = now.Add(2 * time.Second)

	st := l.Snapshot()
	if st == nil || st.Self != "http://b" || st.Leader != "http://a" || st.IsLeader {
		t.Fatalf("snapshot = %+v, want follower of http://a", st)
	}
	if st.TTLMs != 5000 || len(st.Peers) != 1 {
		t.Fatalf("snapshot = %+v, want ttl 5000ms and one peer", st)
	}
	if p := st.Peers[0]; p.URL != "http://a" || !p.Live || p.LastSeenAgeMs != 2000 {
		t.Fatalf("peer row = %+v, want live with age 2000ms", p)
	}

	now = now.Add(4 * time.Second)
	if p := l.Snapshot().Peers[0]; p.Live {
		t.Fatalf("peer row = %+v, want dead after the window", p)
	}

	var nilLease *Lease
	if nilLease.Snapshot() != nil {
		t.Fatal("nil lease must snapshot to nil")
	}
}

// peerPair wires two coordinators into a replication group over real
// HTTP, each with its own registry and result cache, returning them
// with their base URLs. Lease clocks stay real (tests that need
// expiry inject their own).
func peerPair(t *testing.T, cacheA, cacheB ResultCache) (cA, cB *Coordinator, urlA, urlB string) {
	t.Helper()
	if cacheA == nil {
		cacheA = passThrough{}
	}
	if cacheB == nil {
		cacheB = passThrough{}
	}
	// The handler indirection breaks the chicken-and-egg between
	// httptest URL allocation and Config.Self.
	var a, b *Coordinator
	tsA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { a.Handler().ServeHTTP(w, r) }))
	tsB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { b.Handler().ServeHTTP(w, r) }))
	t.Cleanup(tsA.Close)
	t.Cleanup(tsB.Close)
	a = New(Config{Registry: NewRegistry(0), Cache: cacheA, Self: tsA.URL, Peers: []string{tsB.URL}})
	b = New(Config{Registry: NewRegistry(0), Cache: cacheB, Self: tsB.URL, Peers: []string{tsA.URL}})
	return a, b, tsA.URL, tsB.URL
}

// waitUntil polls cond until it holds or the deadline lapses.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRegistrationReplicates: a worker registering with ONE
// coordinator becomes routable on every coordinator — the leader
// gossips it, a follower forwards it to the leader — so wherever a
// heartbeat lands, the whole group converges on the same routing set.
func TestRegistrationReplicates(t *testing.T) {
	cA, cB, urlA, urlB := peerPair(t, nil, nil)
	fw := newFakeWorker(t)

	// Register via A (whatever its lease role); B must learn the worker
	// through replication without ever hearing from it directly.
	if err := client.New(urlA).Register(context.Background(), fw.id, fw.srv.URL); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "registration to reach peer", func() bool { return len(cB.reg.Live()) == 1 })

	// And symmetrically: registering via B reaches A. (One direction
	// exercised leader-gossip, the other follower-forwarding, whichever
	// way the URLs sorted.)
	fw2 := newFakeWorker(t)
	if err := client.New(urlB).Register(context.Background(), fw2.id, fw2.srv.URL); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "second registration to reach peer", func() bool { return len(cA.reg.Live()) == 2 })

	// Gossip receipts are proof of life: each lease has seen its peer.
	if cA.lease.Leader() != cB.lease.Leader() {
		t.Fatalf("split brain: A elects %q, B elects %q", cA.lease.Leader(), cB.lease.Leader())
	}
}

// TestResultReplicationSurvivesLeaderDeath is the tentpole cache
// property: a result fetched through one coordinator is a local cache
// hit on the OTHER after the first dies — killing the leader loses no
// cached results.
func TestResultReplicationSurvivesLeaderDeath(t *testing.T) {
	engA, err := dlrmperf.NewEngineWith(dlrmperf.EngineConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	engB, err := dlrmperf.NewEngineWith(dlrmperf.EngineConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cA, cB, _, _ := peerPair(t, engA, engB)
	fw := newFakeWorker(t)
	cA.reg.AddStatic(fw.srv.URL)
	cB.reg.AddStatic(fw.srv.URL)

	r := req("V100", "DLRM_default", 512)
	row, err := cA.PredictOne(context.Background(), r, false)
	if err != nil || row.Error != "" || row.CacheHit {
		t.Fatalf("fetch via A = %+v, %v; want a routed miss", row, err)
	}
	// Quiesce A's replication fan, then "kill" it: from here on only B
	// answers.
	cA.Drain(false)

	waitUntil(t, "replicated result to land in B's cache", func() bool {
		row, err := cB.PredictOne(context.Background(), r, false)
		return err == nil && row.CacheHit
	})
	if n := fw.receivedCount(); n != 1 {
		t.Fatalf("worker saw %d requests, want 1 — the re-query must be B's local hit", n)
	}
	st := cB.Stats(context.Background())
	if st.Coordinator.LocalCacheHits == 0 {
		t.Fatalf("B reports no local hits after replicated re-query: %+v", st.Coordinator)
	}
	if st.Coordinator.PeerResultsInstalled == 0 {
		t.Fatalf("B never counted the gossiped install: %+v", st.Coordinator)
	}
	assertAggInvariant(t, st)
}

// TestDrainingPeerCannotLead: peer probes refresh the lease only on an
// "ok" /healthz — a draining coordinator answers probes but is leaving
// the group and must age out of leadership.
func TestDrainingPeerCannotLead(t *testing.T) {
	cA, cB, urlA, urlB := peerPair(t, nil, nil)
	lower, higher := cA, cB
	if urlB < urlA {
		lower, higher = cB, cA
	}
	// Pin clocks so liveness is under test control.
	now := time.Unix(5000, 0)
	higher.lease.live.now = func() time.Time { return now }
	higher.lease.MarkSeen(lower.lease.Self())
	if isLeader(higher.lease) {
		t.Fatal("higher URL leads while the lower peer is live")
	}

	// The lower coordinator drains: its healthz flips, so probes stop
	// refreshing it and the higher peer takes the lease at expiry.
	lower.Drain(false)
	stop := higher.StartPeerProbes(context.Background(), 20*time.Millisecond)
	defer stop()
	now = now.Add(DefaultLiveness + time.Millisecond)
	time.Sleep(100 * time.Millisecond) // several probe rounds against the draining peer
	if !isLeader(higher.lease) {
		t.Fatalf("lease still held by draining peer: %+v", higher.lease.Snapshot())
	}
}

// isLeader reports whether l's coordinator currently holds the lease.
func isLeader(l *Lease) bool { return l.Leader() == l.Self() }
