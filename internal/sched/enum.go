package sched

import (
	"math"

	"symbiosched/internal/perfdb"
	"symbiosched/internal/workload"
)

// enumerator is the allocation-free candidate machinery the
// knowledge-driven schedulers own: over a queue Summary it walks every
// feasible type-count multiset of a given size in the exact
// lexicographic order the old recursive enumerator produced (count vector
// ascending, types ascending), materialising nothing until the winner is
// known. All buffers are reused across decisions, so steady-state
// enumeration performs zero heap allocations.
//
// The enumeration order is load-bearing: MAXIT breaks instantaneous-
// throughput ties within a 1e-12 tolerance by job age, and on exact ties
// the first candidate in enumeration order wins, so golden outputs are
// only bit-identical if the order is preserved. Branch-and-bound pruning
// (dominatedTP/dominatedSum + nextFrom) respects the order: it only ever
// skips contiguous stretches of candidates that provably could not have
// updated the running best — or its tie state — had they been scored, so
// the surviving sequence of best updates is identical to the full walk's
// (see DESIGN.md, "Hot path & memoization").
type enumerator struct {
	// The decided summary's types and counts, set by reset. The
	// enumerator keeps no pointer to the summary itself, which would keep
	// a finished server's jobs alive.
	types []int // distinct types present, ascending
	caps  []int // available jobs per distinct type

	counts []int               // current candidate: count per distinct type
	ways   []int               // candidates' counting scratch
	best   []int               // winning count vector (copied on improvement)
	cos    workload.Coschedule // scratch candidate multiset, sorted
	cosKey uint64              // perfdb.Key(cos), maintained by buildCos

	// Branch-and-bound state, valid after setBounds (and setHeads and
	// setRemBounds for SRPT) until the next reset. m is the candidate
	// size. The head arrays hrem and cumDiv hold m entries per type
	// slot: a candidate takes at most m jobs of a type, the first ones
	// of its group.
	m      int
	ub     []float64 // ub[ti]: admissible per-slot rate bound for types[ti]
	sufMax []float64 // sufMax[p]: max of ub[p:], sufMax[len(types)] = 0
	hrem   []float64 // hrem[ti*m+j]: Remaining of slot ti's j-th job, j < min(caps[ti], m)
	cumDiv []float64 // cumDiv[ti*m+j]: prefix sums of hrem over slot ti, pre-divided by its rate bound
	sufQ   []float64 // sufQ[p*(m+1)+r]: cost floor for r slots placed in groups >= p
	qbuf   []float64 // merge scratch for building sufQ

	// dominatedSum's incremental prefix state: bndPfx[p]/bndPlaced[p]
	// hold the bound prefix and slot count through position p for the
	// counts the last walk saw, valid for positions below dirty — the
	// first position counts has changed at since (maintained by
	// firstCandidate and nextFrom). Successive candidates share long
	// prefixes, so most dominance checks resume near the tail.
	bndPfx    []float64
	bndPlaced []int
	dirty     int

	// Dense-rate cache: a direct-mapped (key -> TypeWIPCsByKey result)
	// table serving repeated candidate probes without the map lookup.
	// Entries survive across decisions for as long as the source's rate
	// epoch stands — the same soundness argument as MAXIT's decision
	// memo — and rcKey 0 marks an empty slot (real keys are never 0:
	// perfdb keys carry a leading length marker).
	rcKey   [1 << rcBits]uint64
	rcVal   [1 << rcBits][]float64
	rcEpoch uint64
	rcLive  bool
}

// rcBits sizes the dense-rate cache at 64 direct-mapped slots — enough
// for every candidate of the queue depths the hot paths see, at 2KiB of
// per-enumerator scratch.
const rcBits = 6

// reset points the enumerator at the queue summary q for one decision.
func (e *enumerator) reset(q *Summary) {
	e.types, e.caps = q.types, q.caps
}

// firstCandidate resets counts to the lexicographically smallest vector
// summing to m (filled from the last types backward). It returns false
// when m is non-positive; m must not exceed the queue length. Callers
// that need the materialised multiset call buildCos before scoring.
func (e *enumerator) firstCandidate(m int) bool {
	if m <= 0 {
		return false
	}
	e.m = m
	e.dirty = 0
	if cap(e.counts) < len(e.types) {
		e.counts = make([]int, len(e.types))
	}
	e.counts = e.counts[:len(e.types)]
	rem := m
	for i := len(e.types) - 1; i >= 0; i-- {
		c := min(e.caps[i], rem)
		e.counts[i], rem = c, rem-c
	}
	return true
}

// candidates returns how many count vectors the walk over m slots
// visits — those summing to m with counts[ti] <= caps[ti] — or limit
// when there are at least that many. It is a knapsack count over the
// type slots: ways[s] holds the vectors over the slots so far that sum
// to s, and a slot of cap c turns it into the sum of the previous
// ways[s-c..s], a difference of prefix sums. Adding a slot never lowers
// ways[m], so the count stops at limit.
func (e *enumerator) candidates(m, limit int) int {
	var buf [16]int
	ways := buf[:]
	if m >= len(buf) {
		if cap(e.ways) < m+1 {
			e.ways = make([]int, m+1)
		}
		ways = e.ways
		clear(ways)
	}
	ways = ways[:m+1]
	ways[0] = 1
	for _, c := range e.caps {
		for s := 1; s <= m; s++ {
			ways[s] += ways[s-1]
		}
		for s := m; s > c; s-- {
			ways[s] -= ways[s-c-1]
		}
		if ways[m] >= limit {
			return limit
		}
	}
	return ways[m]
}

// next advances counts to the lexicographic successor, returning false
// when the enumeration is exhausted.
func (e *enumerator) next() bool { return e.nextFrom(len(e.counts) - 1) }

// nextFrom advances counts to the first lexicographic successor that
// differs at some position <= p — skipping the entire subtree of
// candidates sharing the current counts[0..p] prefix. Every candidate in
// that subtree carries the same prefix and the same total suffix mass,
// so the successor computed here is the same from any of them; with
// p = len(counts)-1 this is exactly the old single-step next.
func (e *enumerator) nextFrom(p int) bool {
	// Mass held by the positions being abandoned (those right of the
	// increment point) redistributes rightmost-packed — the
	// lexicographically smallest suffix, preserving enumeration order.
	counts, caps := e.counts, e.caps
	suffix := 0
	for i := len(counts) - 1; i > p; i-- {
		suffix += counts[i]
	}
	for q := p; q >= 0; q-- {
		if suffix >= 1 && counts[q] < caps[q] {
			counts[q]++
			if q < e.dirty {
				e.dirty = q
			}
			rem := suffix - 1
			for i := len(counts) - 1; i > q; i-- {
				c := min(caps[i], rem)
				counts[i], rem = c, rem-c
			}
			return true
		}
		suffix += counts[q]
	}
	return false
}

// buildCos materialises the current count vector as a sorted multiset and
// folds its perfdb.Key alongside (valid for keyed rate sources, whose
// tables enforce the key's type/length bounds).
func (e *enumerator) buildCos() {
	e.cos = e.cos[:0]
	e.cosKey = perfdb.EmptyKey
	for ti, c := range e.counts {
		for j := 0; j < c; j++ {
			e.cos = append(e.cos, e.types[ti])
			e.cosKey = perfdb.KeyAppend(e.cosKey, e.types[ti])
		}
	}
}

// buildKey folds just the perfdb.Key of the current count vector, leaving
// the cos scratch stale — the fast path for keyed rate sources, which
// never read the materialised multiset.
func (e *enumerator) buildKey() {
	e.cosKey = perfdb.EmptyKey
	for ti, c := range e.counts {
		for j := 0; j < c; j++ {
			e.cosKey = perfdb.KeyAppend(e.cosKey, e.types[ti])
		}
	}
}

// primeRateCache readies the dense-rate cache for one decision at source
// epoch ep, dropping every cached slice when the rates have moved.
func (e *enumerator) primeRateCache(ep uint64) {
	if e.rcLive && ep == e.rcEpoch {
		return
	}
	clear(e.rcKey[:])
	clear(e.rcVal[:])
	e.rcEpoch, e.rcLive = ep, true
}

// ratesFor serves dr.TypeWIPCsByKey(key) through the direct-mapped cache:
// queue compositions repeat heavily between scheduling events, so most
// candidates resolve to one uint64 compare instead of a map probe.
// primeRateCache must have run for the current epoch first.
func (e *enumerator) ratesFor(dr denseRates, key uint64) []float64 {
	s := (key * 0x9e3779b97f4a7c15) >> (64 - rcBits)
	if e.rcKey[s] == key {
		return e.rcVal[s]
	}
	r := dr.TypeWIPCsByKey(key)
	e.rcKey[s], e.rcVal[s] = key, r
	return r
}

// rateBound is the optional pruning capability on a rate source: an
// admissible per-slot rate bound. MaxJobWIPC(b, slots) must dominate
// JobWIPC(c, b) for every slots-slot coschedule c the source can be asked
// about, and InstTP must be the sum of its slots' JobWIPCs, so that
// count-weighted bound sums dominate candidate scores. The slot count is
// part of the contract because within one Select every candidate has the
// same fixed size, and for two or more slots a table can answer with its
// co-run maximum — strictly below the normalized solo WIPC of 1 whenever
// the type interferes at all, which is what gives the bound its teeth.
// *perfdb.Table (max over stored entries of the right size class),
// online.Oracle (delegation) and online.Pairwise (its MaxRate clamp)
// implement it; the Sampler deliberately does not — its sample-phase
// InstTP is an exploration score, not a slot sum, so no per-slot bound is
// admissible and MAXIT falls back to the full walk over it.
type rateBound interface {
	MaxJobWIPC(b, slots int) float64
}

// setBounds resolves the per-type rate bounds for candidates of m slots
// and their suffix maxima for branch-and-bound pruning, returning false
// (pruning disabled) when the source exposes no bound or a degenerate
// one.
func (e *enumerator) setBounds(rs any, m int) bool {
	rb, ok := rs.(rateBound)
	if !ok {
		return false
	}
	e.ub = e.ub[:0]
	for _, t := range e.types {
		b := rb.MaxJobWIPC(t, m)
		if !(b > 0) || math.IsInf(b, 1) {
			return false
		}
		e.ub = append(e.ub, b)
	}
	if cap(e.sufMax) < len(e.types)+1 {
		e.sufMax = make([]float64, len(e.types)+1)
	}
	e.sufMax = e.sufMax[:len(e.types)+1]
	e.sufMax[len(e.types)] = 0
	for i := len(e.types) - 1; i >= 0; i-- {
		e.sufMax[i] = max(e.ub[i], e.sufMax[i+1])
	}
	return true
}

// setHeads copies the Remaining of each type slot's first min(caps, m)
// jobs into hrem — all SRPT's scoring and bounds ever read, since a
// candidate of m slots takes at most m jobs of a type, and those from the
// front of its (Remaining-sorted) group.
func (e *enumerator) setHeads(q *Summary, m int) {
	e.m = m
	if cap(e.hrem) < len(e.types)*m {
		e.hrem = make([]float64, len(e.types)*m)
	}
	e.hrem = e.hrem[:len(e.types)*m]
	for ti, c := range e.caps {
		q.remaining(ti, e.hrem[ti*m:ti*m+min(c, m)])
	}
}

// setRemBounds derives SRPT's per-group remaining-work prefix sums,
// pre-divided by the group's rate bound so dominatedSum adds a stored
// quotient instead of dividing per candidate, and the suffix cost floors
// for candidates of m slots, all from the head arrays setHeads filled.
// Groups are sorted by ascending Remaining, so group prefixes are the
// cheapest fills. setBounds must have succeeded first.
//
// sufQ[p*(m+1)+r] is the sum of the r smallest per-job quotients
// (Remaining at the bound rate) over all jobs in groups >= p, relaxing
// the per-group prefix structure — every real placement of r slots picks
// r distinct jobs there, so the unconstrained r-smallest selection is an
// admissible floor, and a far tighter one than r times the global
// minimum when remaining work is spread out. Only a group's first m jobs
// can be among the r <= m smallest. Rows are built back to front by
// merging each group's ascending quotient run into the running
// m-smallest list; infeasible r (more slots than suffix jobs) are +Inf,
// and the walk never asks for them.
func (e *enumerator) setRemBounds(m int) {
	T := len(e.types)
	if cap(e.cumDiv) < T*m {
		e.cumDiv = make([]float64, T*m)
	}
	e.cumDiv = e.cumDiv[:T*m]
	for ti := range e.types {
		lo, hi := ti*m, ti*m+min(e.caps[ti], m)
		// One reciprocal per group instead of a division per job: the
		// quotients stray at most two ulps from exact division, far
		// inside the boundSlack margin the dominance checks demand, so
		// admissibility is unaffected.
		inv := 1 / e.ub[ti]
		sum := 0.0
		for i := lo; i < hi; i++ {
			sum += e.hrem[i]
			e.cumDiv[i] = sum * inv
		}
	}
	if cap(e.bndPfx) < T {
		e.bndPfx = make([]float64, T)
		e.bndPlaced = make([]int, T)
	}
	e.bndPfx, e.bndPlaced = e.bndPfx[:T], e.bndPlaced[:T]
	stride := m + 1
	if cap(e.sufQ) < (T+1)*stride {
		e.sufQ = make([]float64, (T+1)*stride)
	}
	e.sufQ = e.sufQ[:(T+1)*stride]
	if cap(e.qbuf) < 2*m {
		e.qbuf = make([]float64, 2*m)
	}
	cur, nxt := e.qbuf[:m], e.qbuf[m:2*m]
	cn := 0 // quotients valid in cur, sorted ascending
	last := e.sufQ[T*stride:]
	last[0] = 0
	for r := 1; r <= m; r++ {
		last[r] = math.Inf(1)
	}
	for p := T - 1; p >= 0; p-- {
		lo := p * m
		gl := min(e.caps[p], m)
		inv := 1 / e.ub[p]
		i, j, k := 0, 0, 0
		for k < m && (i < cn || j < gl) {
			var gq float64
			if j < gl {
				gq = e.hrem[lo+j] * inv
			}
			if j >= gl || (i < cn && cur[i] <= gq) {
				nxt[k] = cur[i]
				i++
			} else {
				nxt[k] = gq
				j++
			}
			k++
		}
		cur, nxt = nxt, cur
		cn = k
		row := e.sufQ[p*stride : (p+1)*stride]
		row[0] = 0
		s := 0.0
		for r := 1; r <= m; r++ {
			if r <= cn {
				s += cur[r-1]
				row[r] = s
			} else {
				row[r] = math.Inf(1)
			}
		}
	}
}

// boundSlack is the relative margin the dominance checks demand before
// declaring a subtree dead. The bounds accumulate their terms in a
// different association order than the score loops (per-group totals vs
// per-job running sums), so a computed bound can stray a few ulps across
// the exactly-equal computed score when every rate sits at its bound.
// Requiring the bound to clear the threshold by 1e-12 relative — orders
// of magnitude above float64's summation error for any feasible slot
// count, and orders below any score difference the schedulers act on —
// keeps "dominated" certain, so pruning stays bit-identical to the full
// walk. Scores and bounds are non-negative, so relative scaling never
// flips a comparison.
const boundSlack = 1e-12

// dominatedTP reports the shortest prefix of the current count vector
// whose optimistic instantaneous throughput cannot exceed thr: the placed
// slots at their per-type bounds plus the unplaced slots at the best
// bound still ahead. When it returns true, every candidate sharing
// counts[0..p] is bounded by the same value (the bound depends only on
// the prefix and the suffix mass), so the whole subtree may be skipped
// with nextFrom(p). MAXIT passes thr = bestTP - tieTol: a candidate only
// matters if its score strictly exceeds that, so a subtree bounded at or
// below it would neither update the best nor set the tie flag.
func (e *enumerator) dominatedTP(thr float64) (int, bool) {
	thr /= 1 + boundSlack
	prefix, placed := 0.0, 0
	for p, c := range e.counts {
		prefix += float64(c) * e.ub[p]
		placed += c
		if prefix+float64(e.m-placed)*e.sufMax[p+1] <= thr {
			return p, true
		}
	}
	return 0, false
}

// dominatedSum is dominatedTP's SRPT dual: the shortest prefix whose
// optimistic (lower-bound) remaining-time sum already reaches thr. The
// placed slots contribute their exact remaining work at the bound rate
// (group prefixes, so the pre-divided cumDiv applies); the unplaced
// slots contribute at least the suffix cost floor sufQ — the sum of the
// r smallest quotients still ahead. SRPT improves only on sum < bestSum,
// so a subtree bounded at or above bestSum is inert and may be skipped.
func (e *enumerator) dominatedSum(thr float64) (int, bool) {
	thr *= 1 + boundSlack
	cumDiv, sufQ := e.cumDiv, e.sufQ
	counts := e.counts
	m, stride := e.m, e.m+1
	prefix, placed := 0.0, 0
	p := e.dirty
	if p > 0 {
		prefix, placed = e.bndPfx[p-1], e.bndPlaced[p-1]
	}
	for ; p < len(counts); p++ {
		c := counts[p]
		if c > 0 {
			prefix += cumDiv[p*m+c-1]
		}
		placed += c
		e.bndPfx[p], e.bndPlaced[p] = prefix, placed
		if prefix+sufQ[(p+1)*stride+m-placed] >= thr {
			e.dirty = p + 1
			return p, true
		}
	}
	e.dirty = len(counts)
	return 0, false
}

// greedySeed fills counts with the candidate taking the m jobs with the
// smallest remaining work overall — SRPT's groups are Remaining-sorted,
// so this is an m-step merge over the head arrays setHeads filled. SRPT
// scores it to seed its branch-and-bound threshold before enumeration
// starts; the seed is a real candidate, so its score is always an upper
// bound on the true minimum, whatever the rates do.
func (e *enumerator) greedySeed(m int) {
	if cap(e.counts) < len(e.types) {
		e.counts = make([]int, len(e.types))
	}
	e.counts = e.counts[:len(e.types)]
	clear(e.counts)
	for placed := 0; placed < m; placed++ {
		bi, bv := -1, math.Inf(1)
		for ti := range e.types {
			if c := e.counts[ti]; c < e.caps[ti] {
				if v := e.hrem[ti*m+c]; v < bv {
					bi, bv = ti, v
				}
			}
		}
		e.counts[bi]++
	}
}

// keepBest copies the current counts into best.
func (e *enumerator) keepBest() {
	e.best = append(e.best[:0], e.counts...)
}

// memoKeyBits packs (k, then per distinct type its identity and its count
// capped at k) into a uint64 decision-memo key, in the spirit of
// perfdb.Key. Capping is lossless for the argmax: no candidate can use
// more than min(k, queue length) jobs of one type, and the selection
// takes group prefixes, so queues agreeing on capped counts have the same
// candidate set and the same materialisation. ok is false when the
// signature does not fit 64 bits (more than four distinct types, a type
// above 255, or k above 15) — callers then skip the memo.
func (e *enumerator) memoKey(k int) (key uint64, ok bool) {
	if len(e.types) > 4 || k > 15 {
		return 0, false
	}
	key = 1 // leading 1 marks the length
	for ti, t := range e.types {
		if t > 255 {
			return 0, false
		}
		key = key<<12 | uint64(t)<<4 | uint64(min(e.caps[ti], k))
	}
	return key<<4 | uint64(k), true
}

// packCounts encodes a winning count vector (each entry <= 15, at most
// four entries when memoKey accepted the queue) for memo storage.
func packCounts(counts []int) uint64 {
	var v uint64 = 1
	for _, c := range counts {
		v = v<<4 | uint64(c)
	}
	return v
}

// unpackCounts decodes packCounts into the shared counts scratch, sized
// to the current type-group count.
func (e *enumerator) unpackCounts(v uint64) []int {
	if cap(e.counts) < len(e.types) {
		e.counts = make([]int, len(e.types))
	}
	e.counts = e.counts[:len(e.types)]
	for i := len(e.counts) - 1; i >= 0; i-- {
		e.counts[i] = int(v & 0xf)
		v >>= 4
	}
	return e.counts
}
