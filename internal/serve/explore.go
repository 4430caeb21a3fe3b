package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"dlrmperf/internal/explore"
)

// GridTooLargeError rejects a grid whose expanded cross-product
// exceeds MaxGrid. It unwraps to its 400 grid_too_large refusal.
type GridTooLargeError struct{ Size, Max int }

func (e *GridTooLargeError) Error() string {
	return fmt.Sprintf("serve: grid expands to %d points, above the %d-point limit; split the axes", e.Size, e.Max)
}

func (e *GridTooLargeError) Unwrap() error {
	return Refusal(http.StatusBadRequest, "grid_too_large", e.Error())
}

// Sweep is the explore spine the worker and the cluster coordinator
// share: bound the expanded size at MaxGrid, expand and deduplicate the
// grid once, drive the unique units through run as batches of at most
// MaxBatch rows (each carrying the grid's per-prediction timeout), and
// aggregate the outcomes. run is the caller's RunBatch — a sweep is
// batch traffic, admitted, routed and counted as such. Grid points
// scenario validation rejects are counted explore-side and never
// submitted.
func Sweep(ctx context.Context, g explore.Grid, run func(context.Context, []Request) []Result) (*explore.Report, error) {
	if size := g.Size(); size > MaxGrid {
		return nil, &GridTooLargeError{Size: size, Max: MaxGrid}
	}
	ex, err := explore.Expand(g)
	if err != nil {
		return nil, Refusal(http.StatusBadRequest, "bad_grid", err.Error())
	}
	start := time.Now()
	agg := explore.NewAggregator(ex)
	for lo := 0; lo < len(ex.Unique); lo += MaxBatch {
		reqs := make([]Request, min(MaxBatch, len(ex.Unique)-lo))
		for i := range reqs {
			p := ex.Unique[lo+i].Point
			reqs[i] = Request{
				Scenario: p.Scenario, Device: p.Device, Batch: p.Batch,
				GPUs: p.GPUs, Comm: p.Comm, Shared: p.Shared, TimeoutMs: g.TimeoutMs,
			}
		}
		for i, res := range run(ctx, reqs) {
			agg.Add(lo+i, explore.Outcome{
				E2EUs:             res.E2EUs,
				ScalingEfficiency: res.ScalingEfficiency,
				CacheHit:          res.CacheHit,
				Err:               res.Error,
			})
		}
	}
	return agg.Report(time.Since(start)), nil
}

// RunExplore drives a grid's unique units through the server's
// admission pipeline as batches of at most MaxBatch rows — every unit
// rides Submit's blocking admission exactly like a batch row (it IS
// one: RunBatch), so the sweep is governed by the same queue, counted
// by the same /stats buckets, preserves hits + misses + rejected ==
// requests, and a million-point grid holds RunBatch's bounded
// goroutine count, not one per point.
func (s *Server) RunExplore(ctx context.Context, g explore.Grid) (*explore.Report, error) {
	if s.Draining() {
		return nil, ErrDraining
	}
	rep, err := Sweep(ctx, g, s.RunBatch)
	if err != nil {
		return nil, err
	}
	assets := s.cfg.Backend.AssetStats()
	rep.Assets = &assets
	return rep, nil
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var g explore.Grid
	if !DecodeBody(w, r, &g) {
		return
	}
	rep, err := s.RunExplore(r.Context(), g)
	if err != nil {
		WriteError(w, err, s.retryAfterHint())
		return
	}
	WriteJSON(w, http.StatusOK, rep)
}
