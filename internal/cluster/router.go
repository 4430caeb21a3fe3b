package cluster

import (
	"cmp"
	"slices"
	"strings"
)

// Rendezvous (highest-random-weight) hashing is the coordinator's
// device→worker routing function. Every (worker, key) pair gets a
// deterministic pseudo-random score; a key is served by the live
// worker with the highest score. The properties the serving layer
// leans on, all pinned by property tests:
//
//   - Deterministic and order-free: the ranking depends only on the
//     worker IDs and the key, never on registration order, so every
//     coordinator replica routes identically and a device's pinned
//     calibration assets stay hot on one worker.
//   - Uniform: scores are independent hashes, so devices spread evenly
//     across workers without a token ring or virtual nodes.
//   - Minimal disruption: removing a worker only re-homes the keys it
//     owned (their next-ranked candidate is unchanged); keys on
//     surviving workers never move. This is what makes the one-retry
//     failover cheap — the retry target is exactly the worker the key
//     would live on after the failure.

// rendezvousScore hashes one (workerID, key) pair: FNV-1a over the two
// strings with a separator byte (so ("ab","c") and ("a","bc") differ),
// finished with a SplitMix64 mixer for high-order avalanche — raw
// FNV-1a is too weak in its top bits for a fair argmax.
func rendezvousScore(workerID, key string) uint64 {
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	for i := 0; i < len(workerID); i++ {
		h = (h ^ uint64(workerID[i])) * prime64
	}
	h = (h ^ 0xff) * prime64
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime64
	}
	// SplitMix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Rank orders workers by descending rendezvous weight for key; ties
// (only possible with duplicate IDs) break toward the lower ID so the
// ranking is a total order. The input slice is not modified.
func Rank(workers []Worker, key string) []Worker {
	type scored struct {
		w Worker
		s uint64
	}
	ranked := make([]scored, len(workers))
	for i, w := range workers {
		ranked[i] = scored{w, rendezvousScore(w.ID, key)}
	}
	slices.SortStableFunc(ranked, func(a, b scored) int {
		if c := cmp.Compare(b.s, a.s); c != 0 {
			return c
		}
		return strings.Compare(a.w.ID, b.w.ID)
	})
	out := make([]Worker, len(ranked))
	for i, r := range ranked {
		out[i] = r.w
	}
	return out
}
