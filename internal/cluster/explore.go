package cluster

import (
	"context"
	"net/http"

	"dlrmperf/internal/explore"
	"dlrmperf/internal/serve"
)

// RunExplore sweeps a grid across the cluster: the coordinator expands
// and deduplicates once (serve.Sweep, the spine it shares with the
// worker), then sends the unique units through RunBatch in chunks of
// serve.MaxBatch — a sweep travels as batches: the pass-through result cache
// in front (a warm repeat of a grid is answered locally without
// touching a worker), one blocking sub-batch per rendezvous owner per
// chunk behind it (sweep units must apply backpressure, never shed),
// per-row failover behind that. The expansion's device-major order
// means one device's configurations travel together to the same affine
// worker, so that worker's pinned calibration and graph structures
// serve a contiguous run of requests.
func (c *Coordinator) RunExplore(ctx context.Context, g explore.Grid) (*explore.Report, error) {
	if c.Draining() {
		return nil, ErrDraining
	}
	rep, err := serve.Sweep(ctx, g, c.RunBatch)
	if err != nil {
		return nil, err
	}
	// The asset view of a cluster sweep is the merged worker stores
	// (where the calibrations and graphs actually live).
	st := c.Stats(ctx)
	rep.Assets = &st.Assets
	return rep, nil
}

func (c *Coordinator) handleExplore(w http.ResponseWriter, r *http.Request) {
	var g explore.Grid
	if !serve.DecodeBody(w, r, &g) {
		return
	}
	rep, err := c.RunExplore(r.Context(), g)
	if err != nil {
		serve.WriteError(w, err, c.retryAfter())
		return
	}
	serve.WriteJSON(w, http.StatusOK, rep)
}
