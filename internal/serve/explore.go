package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"dlrmperf/internal/explore"
)

// GridTooLargeError rejects a grid whose expanded cross-product
// exceeds MaxGrid — the HTTP 400 grid_too_large surface.
type GridTooLargeError struct{ Size, Max int }

func (e *GridTooLargeError) Error() string {
	return fmt.Sprintf("serve: grid expands to %d points, above the %d-point limit; split the axes", e.Size, e.Max)
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
		return nil, err
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
	WriteExplore(w, rep, err, ErrDraining, s.retryAfterSeconds())
}

// WriteExplore answers POST /v1/explore from a sweep's outcome, on a
// worker and on a coordinator alike: 200 with the report; 503 draining
// with the caller's Retry-After when err is the caller's draining
// sentinel; 400 grid_too_large past MaxGrid; 400 bad_grid for a grid
// Expand refuses (a structurally empty one).
func WriteExplore(w http.ResponseWriter, rep *explore.Report, err, draining error, retryAfter string) {
	var tooLarge *GridTooLargeError
	switch {
	case err == nil:
		WriteJSON(w, http.StatusOK, rep)
	case errors.Is(err, draining):
		w.Header().Set("Retry-After", retryAfter)
		WriteJSON(w, http.StatusServiceUnavailable, HTTPError{Code: "draining", Message: err.Error()})
	case errors.As(err, &tooLarge):
		WriteJSON(w, http.StatusBadRequest, HTTPError{Code: "grid_too_large", Message: err.Error()})
	default:
		WriteJSON(w, http.StatusBadRequest, HTTPError{Code: "bad_grid", Message: err.Error()})
	}
}
