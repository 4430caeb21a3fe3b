package stats

import (
	"math"
	"math/bits"
	"slices"
)

// Scratch is the working memory of a selection: the order keys of the
// runs each level of the descent gathers, and one histogram. A Scratch
// is reused across calls and grows to what the largest of them needed,
// so a caller that trims many populations allocates once. It is not
// safe for concurrent use.
type Scratch struct {
	keys   []uint64
	counts []int32
}

const (
	// radixBits bounds a level's histogram at 1<<radixBits buckets.
	radixBits = 11
	// sortBelow is the length up to which a range is sorted rather than
	// split.
	sortBelow = 32
)

// orderKey maps x to an integer that orders as slices.Sort orders
// floats: every NaN first (key 0), then -Inf up to +Inf, with -0 just
// below +0, which compare equal.
func orderKey(x float64) uint64 {
	if x != x {
		return 0
	}
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// fromKey inverts orderKey; key 0 maps to a NaN.
func fromKey(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// orderStats sets out[i] to the value at rank ranks[i] of xs sorted as
// slices.Sort sorts it; ranks ascend, at most four, and may repeat. xs
// is not written, and its keys are never all stored: one pass finds the
// smallest and largest, and the first level of the descent counts and
// gathers straight from xs.
func (s *Scratch) orderStats(xs []float64, ranks []int, out []float64) {
	lo, hi := ^uint64(0), uint64(0)
	for _, x := range xs {
		k := orderKey(x)
		lo, hi = min(lo, k), max(hi, k)
	}
	var ks [4]uint64
	switch {
	case lo == hi:
		for i := range ranks {
			ks[i] = lo
		}
	case len(xs) <= sortBelow:
		s.keys = s.keys[:0]
		for _, x := range xs {
			s.keys = append(s.keys, orderKey(x))
		}
		s.selectKeys(0, len(xs), len(xs), lo, hi, ranks, ks[:len(ranks)])
	default:
		shift, counts := s.histogram(len(xs), lo, hi)
		for _, x := range xs {
			counts[(orderKey(x)-lo)>>shift]++
		}
		r := s.plan(counts, ranks, 0)
		keys := s.keys
		for _, x := range xs {
			k := orderKey(x)
			if p := counts[(k-lo)>>shift]; p >= 0 {
				keys[p] = k
				counts[(k-lo)>>shift] = p + 1
			}
		}
		s.descend(&r, ks[:len(ranks)])
	}
	for i, k := range ks[:len(ranks)] {
		out[i] = fromKey(k)
	}
}

// selectKeys sets out[i] to the key at rank ranks[i] of keys[from:to],
// whose smallest key is lo and largest hi, using keys[tail:] for the
// runs it gathers. A range of one value ends the descent at once, so
// duplicates cost one pass; a short range is sorted.
func (s *Scratch) selectKeys(from, to, tail int, lo, hi uint64, ranks []int, out []uint64) {
	if lo == hi {
		for i := range ranks {
			out[i] = lo
		}
		return
	}
	if to-from <= sortBelow {
		keys := s.keys[from:to]
		slices.Sort(keys)
		for i, r := range ranks {
			out[i] = keys[r]
		}
		return
	}
	shift, counts := s.histogram(to-from, lo, hi)
	for _, k := range s.keys[from:to] {
		counts[(k-lo)>>shift]++
	}
	r := s.plan(counts, ranks, tail)
	keys := s.keys
	for _, k := range keys[from:to] {
		if p := counts[(k-lo)>>shift]; p >= 0 {
			keys[p] = k
			counts[(k-lo)>>shift] = p + 1
		}
	}
	s.descend(&r, out)
}

// histogram returns the zeroed histogram of a level over n keys spanning
// [lo, hi], and the shift that maps a key's offset from lo to its
// bucket. A level has at most 1<<radixBits buckets of equal key width,
// and never more than half as many as it has keys, so a short range
// keeps a short histogram. lo and hi always land in different buckets,
// so every run is shorter than its range.
func (s *Scratch) histogram(n int, lo, hi uint64) (shift uint, counts []int32) {
	width := min(radixBits, bits.Len(uint(n))-1)
	shift = uint(max(bits.Len64(hi-lo)-width, 0))
	nb := int((hi-lo)>>shift) + 1
	if len(s.counts) < nb {
		s.counts = make([]int32, 1<<width)
	}
	counts = s.counts[:nb]
	clear(counts)
	return shift, counts
}

// runs is one level's plan: the buckets holding a wanted rank, each
// gathered into keys[from:to] and holding ranks[first:last], whose
// ranks within the run are rel; end is where the runs stop.
type runs struct {
	n    int
	span [4]struct{ from, to, first, last int }
	rel  [4]int
	end  int
}

// plan walks a level's histogram once: it finds each rank's bucket,
// gives each such bucket a run from tail on, and turns counts into the
// gather's map — a run's next write position, or -1 for a bucket no
// rank is in. The keys grow to hold the runs.
func (s *Scratch) plan(counts []int32, ranks []int, tail int) runs {
	r := runs{end: tail}
	ri, below := 0, 0
	for b, c := range counts {
		n := int(c)
		counts[b] = -1
		if ri < len(ranks) && ranks[ri] < below+n {
			sp := &r.span[r.n]
			sp.from, sp.to, sp.first = r.end, r.end+n, ri
			for ; ri < len(ranks) && ranks[ri] < below+n; ri++ {
				r.rel[ri] = ranks[ri] - below
			}
			sp.last = ri
			r.n++
			counts[b] = int32(r.end)
			r.end += n
		}
		below += n
	}
	if len(s.keys) < r.end {
		s.keys = slices.Grow(s.keys, r.end-len(s.keys))[:r.end]
	}
	return r
}

// descend selects each run's ranks within it, with the space behind
// every run as its tail.
func (s *Scratch) descend(r *runs, out []uint64) {
	for _, sp := range r.span[:r.n] {
		lo, hi := ^uint64(0), uint64(0)
		for _, k := range s.keys[sp.from:sp.to] {
			lo, hi = min(lo, k), max(hi, k)
		}
		s.selectKeys(sp.from, sp.to, r.end, lo, hi, r.rel[sp.first:sp.last], out[sp.first:sp.last])
	}
}
