package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"dlrmperf/internal/explore"
	"dlrmperf/internal/xsync"
)

// GridTooLargeError rejects a grid whose expanded cross-product
// exceeds Config.MaxGrid — the HTTP 400 grid_too_large surface.
type GridTooLargeError struct{ Size, Max int }

func (e *GridTooLargeError) Error() string {
	return fmt.Sprintf("serve: grid expands to %d points, above the %d-point limit; split the axes", e.Size, e.Max)
}

// Sweep is the explore spine the worker and the cluster coordinator
// share: bound the expanded size at maxGrid, expand and deduplicate the
// grid once, drive each unique unit through submit (at most width at a
// time, carrying the grid's per-prediction timeout), and aggregate the
// outcomes. Grid points scenario validation rejects are counted
// explore-side and never submitted.
func Sweep(ctx context.Context, g explore.Grid, maxGrid, width int, submit func(context.Context, Request) (Result, error)) (*explore.Report, error) {
	if size := g.Size(); size > maxGrid {
		return nil, &GridTooLargeError{Size: size, Max: maxGrid}
	}
	ex, err := explore.Expand(g)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	agg := explore.NewAggregator(ex)
	xsync.ForEachN(len(ex.Unique), width, func(i int) {
		p := ex.Unique[i].Point
		res, err := submit(ctx, Request{
			Scenario: p.Scenario, Device: p.Device, Batch: p.Batch,
			GPUs: p.GPUs, Comm: p.Comm, Shared: p.Shared, TimeoutMs: g.TimeoutMs,
		})
		if err != nil {
			agg.Add(i, explore.Outcome{Err: err.Error()})
			return
		}
		agg.Add(i, explore.Outcome{
			E2EUs:             res.E2EUs,
			ScalingEfficiency: res.ScalingEfficiency,
			CacheHit:          res.CacheHit,
			Err:               res.Error,
		})
	})
	return agg.Report(time.Since(start)), nil
}

// RunExplore drives a grid's unique units through the server's
// admission pipeline — every unit rides Submit's blocking admission
// exactly like a batch row, so the sweep is governed by the same
// queue, counted by the same /stats buckets, and preserves
// hits + misses + rejected == requests. Submitters are bounded by the
// queue capacity plus the worker width: enough to keep every worker
// busy with a full queue behind it, while a million-point grid holds a
// bounded goroutine count, not one per point.
func (s *Server) RunExplore(ctx context.Context, g explore.Grid) (*explore.Report, error) {
	if s.Draining() {
		return nil, ErrDraining
	}
	rep, err := Sweep(ctx, g, s.cfg.MaxGrid, s.cfg.Workers+s.cfg.QueueDepth, s.Submit)
	if err != nil {
		return nil, err
	}
	assets := s.cfg.Backend.AssetStats()
	rep.Assets = &assets
	return rep, nil
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var g explore.Grid
	if !DecodeBody(w, r, s.cfg.MaxBodyBytes, &g) {
		return
	}
	rep, err := s.RunExplore(r.Context(), g)
	var tooLarge *GridTooLargeError
	switch {
	case err == nil:
		WriteJSON(w, http.StatusOK, rep)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		WriteJSON(w, http.StatusServiceUnavailable, HTTPError{Code: "draining", Message: err.Error()})
	case errors.As(err, &tooLarge):
		WriteJSON(w, http.StatusBadRequest, HTTPError{Code: "grid_too_large", Message: err.Error()})
	default:
		// Expansion errors: structurally empty grids.
		WriteJSON(w, http.StatusBadRequest, HTTPError{Code: "bad_grid", Message: err.Error()})
	}
}
