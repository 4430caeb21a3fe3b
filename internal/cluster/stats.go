package cluster

import (
	"dlrmperf"
	"dlrmperf/internal/serve"
)

// Accounting model. The cluster-wide invariant mirrors the per-process
// one — Cache.Hits + Cache.Misses + Rejected.Total() == Requests at
// quiescence — but over ATTEMPT accounting: the aggregated request
// total is defined as the sum of every accounted attempt, not the
// coordinator's client-facing received count (which CoordinatorStats
// reports separately). Each attempt lands in exactly one bucket:
//
//   - a request served by a worker is that worker's request, counted
//     (with its hit/miss/rejection verdict) in the worker's own /stats
//     and merged from there;
//   - a request answered from the coordinator's pass-through result
//     cache never reaches a worker and is counted once as a
//     coordinator local hit (in both Cache.Hits and Requests);
//   - a routing attempt that failed (dead socket, 5xx) is counted once
//     under Rejected.WorkerFailed — whether or not the retry on the
//     next-ranked candidate then succeeded (that retry is a separate,
//     worker-accounted attempt). A request that fails over therefore
//     contributes two accounted attempts: one failed, one served.
//   - requests refused at the coordinator (draining, no live workers)
//     land in the Draining/NoWorkers buckets.
//
// Workers whose /stats fetch fails are excluded from the merge
// entirely — both their buckets and their request totals — so the
// identity survives worker death: a killed worker takes both sides of
// its contribution with it.

// ClusterRejected breaks out every never-served attempt cluster-wide:
// the per-worker buckets summed (serve.RejectedStats, whose Draining
// also counts the coordinator's own draining refusals) plus the
// coordinator's routing buckets.
type ClusterRejected struct {
	serve.RejectedStats
	// WorkerFailed counts routing attempts that died on a worker (the
	// socket broke, or the worker answered 5xx): the fault-injection
	// signal. Retried requests still count their failed first attempt
	// here.
	WorkerFailed uint64 `json:"worker_failed"`
	// NoWorkers counts requests that arrived with zero live workers.
	NoWorkers uint64 `json:"no_workers"`
}

// Total sums every rejection bucket.
func (r ClusterRejected) Total() uint64 {
	return r.RejectedStats.Total() + r.WorkerFailed + r.NoWorkers
}

// CoordinatorStats are the coordinator's own counters, client-facing:
// Received counts client requests (each once, however many attempts
// its routing took), LocalCacheHits the subset answered from the
// pass-through result cache without touching a worker.
type CoordinatorStats struct {
	Received       uint64 `json:"received"`
	LocalCacheHits uint64 `json:"local_cache_hits"`
	// Migrations counts completed warm asset hand-offs (dead home's
	// assets installed on a device's new rendezvous owner);
	// MigrationFailures counts installs that failed, where the new home
	// proceeded cold. Hand-offs are control plane, not requests: they
	// join no side of the accounting invariant.
	Migrations        uint64 `json:"migrations,omitempty"`
	MigrationFailures uint64 `json:"migration_failures,omitempty"`
	// PeerResultsInstalled counts result rows this coordinator accepted
	// from peer gossip into its local pass-through cache — the signal
	// that replication landed, observable without a cache-polluting
	// probe query. Control plane: moves no request counters.
	PeerResultsInstalled uint64 `json:"peer_results_installed,omitempty"`
}

// WorkerStatus is one worker's row in the aggregated stats: its
// registry state, how many attempts the coordinator routed to it, and
// its own /stats snapshot (nil, with StatsError set, when the fetch
// failed — such workers are excluded from the aggregate sums).
type WorkerStatus struct {
	WorkerInfo
	Routed     uint64       `json:"routed"`
	Stats      *serve.Stats `json:"stats,omitempty"`
	StatsError string       `json:"stats_error,omitempty"`
}

// Stats is the coordinator's GET /stats document: the merged
// cluster-wide counters (attempt-accounted, see the package accounting
// model) plus per-worker detail.
type Stats struct {
	// Requests is the aggregated accounted-attempt total; the invariant
	// Cache.Hits + Cache.Misses + Rejected.Total() == Requests holds at
	// quiescence, and Accounted() <= Requests on every snapshot.
	Requests uint64           `json:"requests"`
	Cache    serve.CacheStats `json:"cache"`
	Rejected ClusterRejected  `json:"rejected"`
	// Served/Canceled/InFlight merge the workers' service ledgers.
	Served   uint64 `json:"served"`
	Canceled uint64 `json:"canceled"`
	InFlight int64  `json:"in_flight"`
	// Assets merges the workers' asset stores class-by-class (resident
	// entries, bytes, hit/miss/eviction counters summed; capacities
	// summed into a cluster-wide bound).
	Assets dlrmperf.AssetStats `json:"assets"`
	// Calibrations maps worker ID -> device -> executed calibration
	// runs: the device-affinity ledger. Under rendezvous routing every
	// device should appear under exactly one worker.
	Calibrations map[string]map[string]int `json:"calibrations,omitempty"`
	// Tenants sums the per-tenant admission ledgers across workers.
	// These are worker-side fair-queue counters: requests answered from
	// the coordinator's pass-through cache never reach a worker queue
	// and so appear only in Coordinator.LocalCacheHits.
	Tenants     map[string]serve.TenantStats `json:"tenants,omitempty"`
	Coordinator CoordinatorStats             `json:"coordinator"`
	// Lease is the replicated-control-plane membership view (nil in
	// single-coordinator mode); Vault the replicated per-device asset
	// copies backing warm hand-off on failover.
	Lease    *LeaseStatus           `json:"lease,omitempty"`
	Vault    map[string]VaultStatus `json:"asset_vault,omitempty"`
	Workers  []WorkerStatus         `json:"workers"`
	Draining bool                   `json:"draining"`
}

// Accounted sums the terminal buckets; Accounted() <= Requests on
// every snapshot, with equality at quiescence.
func (s Stats) Accounted() uint64 {
	return s.Cache.Hits + s.Cache.Misses + s.Rejected.Total()
}

// mergeWorker folds one worker's snapshot into the aggregate. Both
// sides of the invariant move together: the worker's buckets into
// Cache/Rejected, its request total into Requests.
func (s *Stats) mergeWorker(id string, ws serve.Stats) {
	s.Requests += ws.Requests
	s.Cache.Hits += ws.Cache.Hits
	s.Cache.Misses += ws.Cache.Misses
	s.Rejected.Add(ws.Rejected)
	s.Served += ws.Served
	s.Canceled += ws.Canceled
	s.InFlight += ws.Queue.InFlight
	mergeAssets(&s.Assets, ws.Assets)
	if len(ws.Calibrations) > 0 {
		if s.Calibrations == nil {
			s.Calibrations = map[string]map[string]int{}
		}
		s.Calibrations[id] = ws.Calibrations
	}
	for name, ts := range ws.Tenants {
		if s.Tenants == nil {
			s.Tenants = map[string]serve.TenantStats{}
		}
		agg := s.Tenants[name]
		agg.Requests += ts.Requests
		agg.Served += ts.Served
		agg.Shed += ts.Shed
		agg.Canceled += ts.Canceled
		agg.Queued += ts.Queued
		agg.TotalWaitUs += ts.TotalWaitUs
		if ts.MaxWaitUs > agg.MaxWaitUs {
			agg.MaxWaitUs = ts.MaxWaitUs
		}
		if agg.Served > 0 {
			agg.AvgWaitUs = float64(agg.TotalWaitUs) / float64(agg.Served)
		}
		s.Tenants[name] = agg
	}
}

// mergeAssets sums a worker's per-class asset counters into the
// aggregate, matching classes by name (order-preserving on first
// sight, so the merged report keeps the engine's class order).
func mergeAssets(dst *dlrmperf.AssetStats, src dlrmperf.AssetStats) {
	for _, c := range src.Classes {
		found := false
		for i := range dst.Classes {
			if dst.Classes[i].Class == c.Class {
				dst.Classes[i].Resident += c.Resident
				dst.Classes[i].Capacity += c.Capacity
				dst.Classes[i].Bytes += c.Bytes
				dst.Classes[i].Hits += c.Hits
				dst.Classes[i].Misses += c.Misses
				dst.Classes[i].Evictions += c.Evictions
				found = true
				break
			}
		}
		if !found {
			dst.Classes = append(dst.Classes, c)
		}
	}
	dst.TotalBytes += src.TotalBytes
}
