package scenario

import (
	"fmt"
	"slices"

	"dlrmperf/internal/workload"
)

// Plan is a device assignment of embedding tables — the load-balancing
// study of §V-A(c), used by the engine's multi-device prediction path
// and by the experiments' sharding study alike.
type Plan struct {
	// Devices is the shard count.
	Devices int
	// Assignments[d] lists the indices (into the planned table slice)
	// owned by device d, ascending.
	Assignments [][]int
	// Loads[d] is the summed weight assigned to device d.
	Loads []float64
	// MaxLoad and MeanLoad summarize the balance.
	MaxLoad, MeanLoad float64
}

// Imbalance is MaxLoad/MeanLoad - 1: 0 for a perfect split, 1 when the
// busiest device carries twice the average.
func (p Plan) Imbalance() float64 {
	if p.MeanLoad == 0 {
		return 0
	}
	return p.MaxLoad/p.MeanLoad - 1
}

// TablesFor materializes device d's shard of the planned tables.
func (p Plan) TablesFor(d int, tables []workload.TableSpec) []workload.TableSpec {
	out := make([]workload.TableSpec, 0, len(p.Assignments[d]))
	for _, i := range p.Assignments[d] {
		out = append(out, tables[i])
	}
	return out
}

// PlanShards balances tables across n devices by the static rows×dim
// weight — the memory-and-lookup proxy that needs no calibrated model.
func PlanShards(tables []workload.TableSpec, dim int64, n int) (Plan, error) {
	return PlanShardsCost(tables, n, func(t workload.TableSpec) float64 {
		return float64(t.Rows) * float64(dim)
	})
}

// PlanShardsCost balances tables across n devices with greedy LPT
// (largest cost first onto the least-loaded device) under an arbitrary
// per-table cost — e.g. a calibrated kernel model's predicted lookup
// time. The plan is deterministic: ties break toward the lower table
// index and the lower device index.
func PlanShardsCost(tables []workload.TableSpec, n int, cost func(workload.TableSpec) float64) (Plan, error) {
	if n < 1 {
		return Plan{}, fmt.Errorf("scenario: device count %d must be >= 1", n)
	}
	if len(tables) == 0 {
		return Plan{}, fmt.Errorf("scenario: no tables to shard")
	}
	if len(tables) < n {
		return Plan{}, fmt.Errorf("scenario: cannot shard %d tables across %d devices without leaving a device empty",
			len(tables), n)
	}
	costs := make([]float64, len(tables))
	order := make([]int, len(tables))
	for i, t := range tables {
		costs[i] = cost(t)
		order[i] = i
	}
	// Descending by cost, with the ">" of the old less function rather
	// than cmp.Compare, so a NaN cost keeps its place as before.
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case costs[a] > costs[b]:
			return -1
		case costs[b] > costs[a]:
			return 1
		}
		return 0
	})

	p := Plan{
		Devices:     n,
		Assignments: make([][]int, n),
		Loads:       make([]float64, n),
	}
	for _, ti := range order {
		best := 0
		for d := 1; d < n; d++ {
			// An empty device always wins: no device may end up with zero
			// tables (a shard must still build a valid DLRM graph).
			if len(p.Assignments[d]) == 0 && len(p.Assignments[best]) > 0 {
				best = d
				break
			}
			if len(p.Assignments[best]) == 0 {
				continue
			}
			if p.Loads[d] < p.Loads[best] {
				best = d
			}
		}
		p.Assignments[best] = append(p.Assignments[best], ti)
		p.Loads[best] += costs[ti]
	}
	total := 0.0
	for d := range p.Assignments {
		slices.Sort(p.Assignments[d])
		total += p.Loads[d]
		if p.Loads[d] > p.MaxLoad {
			p.MaxLoad = p.Loads[d]
		}
	}
	p.MeanLoad = total / float64(n)
	return p, nil
}
