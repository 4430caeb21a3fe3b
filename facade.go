package dlrmperf

import (
	"context"
	"slices"
)

// RemoteResult serves req through the engine's scenario-fingerprint
// result cache with an externally supplied computation — the cluster
// coordinator's pass-through. A resident entry returns hit=true
// without invoking fetch; otherwise fetch runs exactly once among
// identical concurrent requests (the engine's singleflight) and its
// value — opaque to the engine, e.g. the coordinator's answer taken
// from a worker's wire result row — is stored under the request's
// identity. A request with no identity
// (Resolve fails: unknown scenario name, malformed width, a spec that
// does not validate) is never cached or served from cache: fetch runs
// uncached, so the remote worker owns the verdict and its rejection
// accounting. No device-set check applies — the workers own that too.
func (e *Engine) RemoteResult(ctx context.Context, req PredictRequest, fetch func() (any, error)) (v any, hit bool, err error) {
	ereq, err := req.Resolve()
	if err != nil {
		v, err = fetch()
		return v, false, err
	}
	return e.eng.RemoteResult(ctx, ereq, fetch)
}

// ResidentResult is the resident-only read of RemoteResult: ok with the
// stored value when req's row is in the result cache (a served hit,
// counted like RemoteResult's), ok=false with no counter moved when it
// is not, or when req has no identity — the coordinator's batch path
// asks it for every row of a call before it sends any to a worker.
func (e *Engine) ResidentResult(req PredictRequest) (v any, ok bool) {
	if ereq, err := req.Resolve(); err == nil {
		v, ok = e.eng.ResidentResult(ereq)
	}
	return v, ok
}

// InstallRemoteResult seeds the fingerprint result cache with an
// externally computed value under the request's remote key — the
// coordinator replication path, the write half of RemoteResult: a peer
// coordinator that fetched a row from a worker shares it here so a
// repeat hitting this coordinator is a cache hit. It installs only a
// row a worker could have produced — a device in the engine's set, a
// known workload or scenario, and a spec that validates — and reports
// whether it did. No request counters move either way: a replicated
// entry is an install, not a served request.
func (e *Engine) InstallRemoteResult(req PredictRequest, v any) bool {
	ereq, err := req.Resolve()
	if err != nil || e.checkServes(req.Device) != nil || !slices.Contains(Workloads(), ereq.Scenario.Workload) {
		return false
	}
	e.eng.InstallRemoteResult(ereq, v)
	return true
}
