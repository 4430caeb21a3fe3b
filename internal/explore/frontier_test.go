package explore

import (
	"fmt"
	"testing"
	"testing/quick"

	"dlrmperf/internal/xrand"
)

// rowsFrom derives a deterministic row set from raw quick-generated
// values. The coordinate ranges are deliberately tight (8 widths, 24
// times) so duplicates and exact ties occur often.
func rowsFrom(raw []uint16) []Row {
	rows := make([]Row, len(raw))
	for i, r := range raw {
		rows[i] = Row{
			Device:      "D",
			Devices:     1 + int(r%8),
			E2EUs:       float64(1 + (r>>3)%24),
			Fingerprint: fmt.Sprintf("fp%05d", r),
		}
	}
	return rows
}

// bruteFrontier is the O(n²) reference: the set of (devices, e2e)
// coordinates not dominated by any other row (fewer-or-equal devices
// and faster-or-equal time, strictly better on at least one axis).
func bruteFrontier(rows []Row) map[[2]float64]bool {
	coords := map[[2]float64]bool{}
	for _, r := range rows {
		coords[[2]float64{float64(r.Devices), r.E2EUs}] = true
	}
	out := map[[2]float64]bool{}
	for c := range coords {
		dominated := false
		for o := range coords {
			if o[0] <= c[0] && o[1] <= c[1] && (o[0] < c[0] || o[1] < c[1]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out[c] = true
		}
	}
	return out
}

// TestFrontierMatchesBruteForce (testing/quick): the incremental
// frontier's coordinate set equals the brute-force O(n²) Pareto filter
// on random row sets, and its structural invariant holds — ascending
// widths, strictly decreasing times.
func TestFrontierMatchesBruteForce(t *testing.T) {
	f := func(raw []uint16) bool {
		rows := rowsFrom(raw)
		var fr Frontier
		for _, r := range rows {
			fr.Add(r)
		}
		pts := fr.Points()
		for i := 1; i < len(pts); i++ {
			if pts[i].Devices <= pts[i-1].Devices || pts[i].E2EUs >= pts[i-1].E2EUs {
				t.Logf("invariant broken at %d: %+v then %+v", i, pts[i-1], pts[i])
				return false
			}
		}
		want := bruteFrontier(rows)
		if len(pts) != len(want) {
			t.Logf("frontier has %d points, brute force %d", len(pts), len(want))
			return false
		}
		for _, p := range pts {
			if !want[[2]float64{float64(p.Devices), p.E2EUs}] {
				t.Logf("frontier point %+v not in brute-force set", p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFrontierPermutationInvariant: the frontier — surviving tie-break
// representatives included — is independent of insertion order.
func TestFrontierPermutationInvariant(t *testing.T) {
	f := func(raw []uint16, seed uint64) bool {
		rows := rowsFrom(raw)
		var a Frontier
		for _, r := range rows {
			a.Add(r)
		}
		shuffled := append([]Row(nil), rows...)
		xrand.New(seed).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		var b Frontier
		for _, r := range shuffled {
			b.Add(r)
		}
		pa, pb := a.Points(), b.Points()
		if len(pa) != len(pb) {
			t.Logf("orders disagree on size: %d vs %d", len(pa), len(pb))
			return false
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Logf("orders disagree at %d: %+v vs %+v", i, pa[i], pb[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFrontierReplaceAndSweep pins the two eviction paths directly: a
// faster row at an existing width replaces it, and an inserted narrow
// row sweeps away every wider row it newly dominates.
func TestFrontierReplaceAndSweep(t *testing.T) {
	row := func(d int, us float64, fp string) Row {
		return Row{Device: "D", Devices: d, E2EUs: us, Fingerprint: fp}
	}
	var f Frontier
	f.Add(row(2, 100, "a"))
	f.Add(row(4, 80, "b"))
	f.Add(row(8, 60, "c"))
	if len(f.pts) != 3 {
		t.Fatalf("frontier = %+v", f.Points())
	}
	// Same width, faster: replaces in place.
	f.Add(row(4, 70, "d"))
	if pts := f.Points(); len(pts) != 3 || pts[1].Fingerprint != "d" {
		t.Fatalf("replace failed: %+v", pts)
	}
	// Narrow and fast: dominates everything wider and slower.
	f.Add(row(1, 65, "e"))
	pts := f.Points()
	if len(pts) != 2 || pts[0].Fingerprint != "e" || pts[1].Fingerprint != "c" {
		t.Fatalf("sweep failed: %+v", pts)
	}
	// Exact coordinate tie: the smaller tie key survives whichever
	// arrives first.
	f.Add(row(1, 65, "a-smaller"))
	if pts := f.Points(); pts[0].Fingerprint != "a-smaller" {
		t.Fatalf("tie-break failed: %+v", pts)
	}
	f.Add(row(1, 65, "z-bigger"))
	if pts := f.Points(); pts[0].Fingerprint != "a-smaller" {
		t.Fatalf("tie-break not sticky: %+v", pts)
	}
}
