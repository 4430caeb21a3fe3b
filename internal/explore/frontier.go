package explore

import "sort"

// Frontier is the incremental Pareto frontier of predicted step time
// vs device count: the set of explored configurations not dominated by
// any other (fewer-or-equal devices AND faster-or-equal step time,
// strictly better on at least one axis). It is maintained online — one
// binary search plus a bounded sweep per Add — so a sweep never buffers
// its rows for an O(n²) post-pass, and the memory held is the frontier
// itself.
//
// Invariant: points are sorted by ascending Devices with strictly
// decreasing E2EUs — every extra device must buy speed, or the wider
// configuration is dominated and dropped.
type Frontier struct {
	pts []Row
}

// tieKey is the deterministic identity rows tie-break on when their
// (devices, time) coordinates are exactly equal, so the surviving
// representative — and hence the whole frontier — is independent of
// the order results stream in.
func tieKey(r Row) string {
	k := r.Device + "|" + r.Fingerprint
	if r.Shared {
		k += "|shared"
	}
	return k
}

// Add offers a row to the frontier, inserting it and evicting newly
// dominated points as needed.
func (f *Frontier) Add(r Row) {
	i := sort.Search(len(f.pts), func(i int) bool {
		return f.pts[i].Devices >= r.Devices
	})
	// Dominated by a strictly narrower point at least as fast?
	if i > 0 && f.pts[i-1].E2EUs <= r.E2EUs {
		return
	}
	if i < len(f.pts) && f.pts[i].Devices == r.Devices {
		// Same width: keep the faster row; on an exact (devices, time)
		// tie keep the smaller tie key.
		cur := f.pts[i]
		if cur.E2EUs < r.E2EUs || (cur.E2EUs == r.E2EUs && tieKey(cur) <= tieKey(r)) {
			return
		}
		f.pts[i] = r
	} else {
		f.pts = append(f.pts, Row{})
		copy(f.pts[i+1:], f.pts[i:])
		f.pts[i] = r
	}
	// Sweep right: wider points no faster than r are now dominated.
	j := i + 1
	for j < len(f.pts) && f.pts[j].E2EUs >= r.E2EUs {
		j++
	}
	if j > i+1 {
		f.pts = append(f.pts[:i+1], f.pts[j:]...)
	}
}

// Points returns the frontier in ascending device order.
func (f *Frontier) Points() []Row {
	return append([]Row(nil), f.pts...)
}
