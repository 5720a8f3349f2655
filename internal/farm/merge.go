package farm

import (
	"math"

	"symbiosched/internal/eventsim"
)

// slabMerger is the k-way merge that restores global event order after a
// slab: the active shards' completion lists — each already sorted by
// (time, local server index) — are interleaved into one stream ordered
// by (time, global server index). It is a loser tree (tournament merge):
// the k stream heads play a single-elimination tournament once, and each
// emitted completion replays only the winner's path, O(log k) per
// completion instead of the linear scan's O(k). The emission order is
// index-identical to that scan, which merge_test.go keeps verbatim as
// mergeScanReference, the oracle FuzzLoserTreeMerge replays against.
//
// All state lives in reusable arrays sized to the shard count, so a
// merge allocates nothing once the scratch has warmed up.
type slabMerger struct {
	k     int
	tree  []int32   // internal nodes 1..k-1 hold match losers; tree[0] the winner
	keyT  []float64 // per-stream head completion time (+Inf when exhausted)
	keyG  []int32   // per-stream head global server index (tie-break)
	pos   []int     // per-stream cursor
	lists [][]eventsim.Completion
	gbase []int // per-stream global index of the shard's first server
}

// reset points the merger at a fresh set of streams and rebuilds the
// tournament. lists[i] must be sorted by (T, Server); gbase[i] is the
// offset turning lists[i]'s local server indices into global ones.
func (m *slabMerger) reset(lists [][]eventsim.Completion, gbase []int) {
	k := len(lists)
	m.k = k
	m.lists, m.gbase = lists, gbase
	if cap(m.tree) < k {
		m.tree = make([]int32, k)
		m.keyT = make([]float64, k)
		m.keyG = make([]int32, k)
		m.pos = make([]int, k)
	}
	m.tree = m.tree[:k]
	m.keyT = m.keyT[:k]
	m.keyG = m.keyG[:k]
	m.pos = m.pos[:k]
	for i := 0; i < k; i++ {
		m.tree[i] = -1
		m.pos[i] = 0
		m.loadKey(i)
	}
	// Build by playing each stream up from its leaf: a stream parks at
	// the first empty node (no opponent yet), otherwise the match winner
	// continues and the loser stays. After all k insertions every
	// internal node holds exactly one loser and tree[0] the champion.
	for i := k - 1; i >= 0; i-- {
		s := int32(i)
		parked := false
		for t := (i + k) / 2; t > 0; t /= 2 {
			if m.tree[t] < 0 {
				m.tree[t] = s
				parked = true
				break
			}
			if m.beats(m.tree[t], s) {
				s, m.tree[t] = m.tree[t], s
			}
		}
		if !parked {
			m.tree[0] = s
		}
	}
}

// loadKey caches stream i's head key (+Inf sentinel when exhausted).
func (m *slabMerger) loadKey(i int) {
	if m.pos[i] >= len(m.lists[i]) {
		m.keyT[i] = math.Inf(1)
		m.keyG[i] = math.MaxInt32
		return
	}
	c := m.lists[i][m.pos[i]]
	m.keyT[i] = c.T
	m.keyG[i] = int32(m.gbase[i] + c.Server)
}

// beats reports whether stream a's head precedes stream b's head in
// global (time, server index) order. Global indices are unique, so the
// order is total over non-exhausted streams and the tournament is
// deterministic.
func (m *slabMerger) beats(a, b int32) bool {
	if m.keyT[a] != m.keyT[b] {
		return m.keyT[a] < m.keyT[b]
	}
	return m.keyG[a] < m.keyG[b]
}

// next pops the globally-next completion, replaying only the winner's
// leaf-to-root path. ok is false once every stream is exhausted.
func (m *slabMerger) next() (c eventsim.Completion, ok bool) {
	w := m.tree[0]
	if math.IsInf(m.keyT[w], 1) {
		return eventsim.Completion{}, false
	}
	c = m.lists[w][m.pos[w]]
	m.pos[w]++
	m.loadKey(int(w))
	s := w
	for t := (int(w) + m.k) / 2; t > 0; t /= 2 {
		if m.beats(m.tree[t], s) {
			s, m.tree[t] = m.tree[t], s
		}
	}
	m.tree[0] = s
	return c, true
}
