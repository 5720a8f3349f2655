package sched

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"symbiosched/internal/online"
	"symbiosched/internal/stats"
	"symbiosched/internal/workload"
)

// This file pins the allocation-free hot path to a naive reference: the
// pre-optimization recursive enumerator and argmax loops, kept verbatim
// below. The iterative enumerator must produce exactly the same candidate
// sequence, and the schedulers exactly the same picks — including
// oldest-first tie-breaks and memoized replays — across randomized
// queues, type universes and context counts.

// refComposition mirrors the old heap-allocated candidate.
type refComposition struct {
	cos  workload.Coschedule
	jobs []int
}

// refCompositions is the old recursive enumerator, verbatim.
func refCompositions(jobs []*Job, m int, pick func(a, b *Job) bool) []refComposition {
	byType := map[int][]int{}
	var types []int
	for i, j := range jobs {
		if _, ok := byType[j.Type]; !ok {
			types = append(types, j.Type)
		}
		byType[j.Type] = append(byType[j.Type], i)
	}
	sort.Ints(types)
	for _, t := range types {
		g := byType[t]
		sort.Slice(g, func(a, b int) bool { return pick(jobs[g[a]], jobs[g[b]]) })
	}
	var out []refComposition
	counts := make([]int, len(types))
	var rec func(pos, left int)
	rec = func(pos, left int) {
		if left == 0 {
			c := refComposition{}
			for ti, cnt := range counts {
				for j := 0; j < cnt; j++ {
					c.cos = append(c.cos, types[ti])
					c.jobs = append(c.jobs, byType[types[ti]][j])
				}
			}
			sort.Ints(c.cos)
			out = append(out, c)
			return
		}
		if pos == len(types) {
			return
		}
		max := len(byType[types[pos]])
		if max > left {
			max = left
		}
		for cnt := 0; cnt <= max; cnt++ {
			counts[pos] = cnt
			rec(pos+1, left-cnt)
		}
		counts[pos] = 0
	}
	m = min(m, len(jobs))
	rec(0, m)
	return out
}

func refOldestFirst(a, b *Job) bool { return a.ID < b.ID }

// refMAXITSelect is the old MAXIT.Select, verbatim.
func refMAXITSelect(rs online.RateSource, jobs []*Job, k int) []int {
	if len(jobs) == 0 {
		return nil
	}
	comps := refCompositions(jobs, min(k, len(jobs)), refOldestFirst)
	bestIdx, bestTP, bestAge := -1, math.Inf(-1), math.Inf(1)
	for ci, c := range comps {
		tp := rs.InstTP(c.cos)
		age := 0.0
		for _, ji := range c.jobs {
			age += float64(jobs[ji].ID)
		}
		if tp > bestTP+1e-12 || (tp > bestTP-1e-12 && age < bestAge) {
			bestIdx, bestTP, bestAge = ci, tp, age
		}
	}
	return comps[bestIdx].jobs
}

// refSRPTSelect is the old SRPT.Select, verbatim.
func refSRPTSelect(rs online.RateSource, jobs []*Job, k int) []int {
	if len(jobs) == 0 {
		return nil
	}
	shortestFirst := func(a, b *Job) bool {
		if a.Remaining != b.Remaining {
			return a.Remaining < b.Remaining
		}
		return a.ID < b.ID
	}
	comps := refCompositions(jobs, min(k, len(jobs)), shortestFirst)
	bestIdx, bestSum := -1, math.Inf(1)
	for ci, c := range comps {
		var sum float64
		for _, ji := range c.jobs {
			j := jobs[ji]
			rate := rs.JobWIPC(c.cos, j.Type)
			sum += j.Remaining / rate
		}
		if sum < bestSum {
			bestIdx, bestSum = ci, sum
		}
	}
	return comps[bestIdx].jobs
}

// quantizedRates is a static synthetic source whose InstTP is coarsely
// quantized, manufacturing frequent exact throughput ties so the
// age-based tie-break (and the memo's refusal to cache tied keys) is
// exercised hard.
type quantizedRates struct{ k int }

func (quantizedRates) Name() string { return "quantized" }
func (q quantizedRates) K() int     { return q.k }
func (quantizedRates) JobWIPC(c workload.Coschedule, b int) float64 {
	return 1 / (1 + 0.25*float64(len(c)-1))
}
func (q quantizedRates) InstTP(c workload.Coschedule) float64 {
	// Only the candidate size matters: every same-size multiset ties.
	return float64(len(c))
}
func (quantizedRates) Epoch() uint64 { return 0 }

// randomQueue builds an ID-ordered queue (the Select contract) of depth
// up to maxDepth over nTypes types.
func randomQueue(rng *stats.RNG, nextID *int, nTypes, maxDepth int) []*Job {
	depth := 1 + rng.Intn(maxDepth)
	js := make([]*Job, depth)
	for i := range js {
		size := 0.25 + 2*rng.Float64()
		js[i] = &Job{
			ID:        *nextID,
			Type:      rng.Intn(nTypes),
			Size:      size,
			Remaining: size * rng.Float64(),
			Arrival:   float64(i),
		}
		*nextID++
	}
	return js
}

// TestEnumeratorMatchesNaive pins the candidate sequence: same multisets,
// same concrete job choices, same order as the recursive reference.
func TestEnumeratorMatchesNaive(t *testing.T) {
	rng := stats.NewRNG(11)
	nextID := 0
	for trial := 0; trial < 300; trial++ {
		nTypes := 1 + rng.Intn(6)
		k := 1 + rng.Intn(5)
		js := randomQueue(rng, &nextID, nTypes, 9)
		for _, byRem := range []bool{false, true} {
			pick := refOldestFirst
			if byRem {
				pick = func(a, b *Job) bool {
					if a.Remaining != b.Remaining {
						return a.Remaining < b.Remaining
					}
					return a.ID < b.ID
				}
			}
			want := refCompositions(js, min(k, len(js)), pick)
			var q Summary
			q.build(js, byRem)
			var e enumerator
			e.reset(&q)
			got := 0
			for ok := e.firstCandidate(min(k, len(js))); ok; ok = e.next() {
				if got >= len(want) {
					t.Fatalf("trial %d: enumerator yields more than %d candidates", trial, len(want))
				}
				e.buildCos()
				w := want[got]
				if fmt.Sprint(e.cos) != fmt.Sprint(w.cos) {
					t.Fatalf("trial %d candidate %d: cos %v, want %v", trial, got, e.cos, w.cos)
				}
				if fmt.Sprint(q.indices(e.counts)) != fmt.Sprint(w.jobs) {
					t.Fatalf("trial %d candidate %d: jobs %v, want %v",
						trial, got, q.indices(e.counts), w.jobs)
				}
				got++
			}
			if got != len(want) {
				t.Fatalf("trial %d: %d candidates, want %d", trial, got, len(want))
			}
		}
	}
}

// TestSelectMatchesNaive pins MAXIT and SRPT picks to the reference over
// the real oracle table (realistic rates) across randomized queues and k,
// replaying every queue twice so memo hits must reproduce cold argmaxes.
func TestSelectMatchesNaive(t *testing.T) {
	tb := table(t)
	rng := stats.NewRNG(23)
	nextID := 0
	maxit := &MAXIT{Rates: tb}
	srpt := &SRPT{Rates: tb}
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(tb.K()) // candidates above K are not in the table
		js := randomQueue(rng, &nextID, len(tb.Suite()), 10)
		for pass := 0; pass < 2; pass++ {
			wantM := refMAXITSelect(tb, js, k)
			if got := maxit.Select(js, k); fmt.Sprint(got) != fmt.Sprint(wantM) {
				t.Fatalf("trial %d pass %d k=%d: MAXIT %v, want %v", trial, pass, k, got, wantM)
			}
			wantS := refSRPTSelect(tb, js, k)
			if got := srpt.Select(js, k); fmt.Sprint(got) != fmt.Sprint(wantS) {
				t.Fatalf("trial %d pass %d k=%d: SRPT %v, want %v", trial, pass, k, got, wantS)
			}
		}
	}
}

// TestSelectMatchesNaiveUnderTies drives MAXIT over the quantized source
// where whole size classes tie exactly: the age tie-break must match the
// reference on every queue, and — because tied argmaxes depend on job
// IDs, not just type counts — the memo must not leak a previous queue's
// pick into a later queue with the same type-count signature.
func TestSelectMatchesNaiveUnderTies(t *testing.T) {
	rng := stats.NewRNG(37)
	nextID := 0
	src := quantizedRates{k: 4}
	m := &MAXIT{Rates: src}
	for trial := 0; trial < 500; trial++ {
		k := 1 + rng.Intn(4)
		js := randomQueue(rng, &nextID, 4, 8)
		want := refMAXITSelect(src, js, k)
		if got := m.Select(js, k); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d k=%d: MAXIT %v, want %v (jobs %v)", trial, k, got, want, js)
		}
	}
}

// boundedTieRates is a synthetic source built to stress the pruned
// enumeration: per-(coschedule, type) WIPCs are drawn deterministically
// from a hash and quantized to a four-step grid in [0.25, 1], so exact
// throughput ties are frequent, and it implements the MaxJobWIPC pruning
// bound (InstTP is the plain slot sum, every slot at most 1) — unlike
// quantizedRates, which opts out. Every Select over it runs with
// branch-and-bound active, so the reference comparison proves pruning
// never skips a candidate that could have won or tied.
type boundedTieRates struct{ k int }

func (boundedTieRates) Name() string { return "boundedTies" }
func (r boundedTieRates) K() int     { return r.k }
func (boundedTieRates) JobWIPC(c workload.Coschedule, b int) float64 {
	h := uint64(1469598103934665603)
	for _, t := range c {
		h = (h * 1099511628211) ^ uint64(t+1)
	}
	h = (h * 1099511628211) ^ uint64(b*2654435761+1)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return 0.25 + 0.25*float64((h>>33)%4)
}
func (r boundedTieRates) InstTP(c workload.Coschedule) float64 {
	var sum float64
	for _, typ := range c {
		sum += r.JobWIPC(c, typ)
	}
	return sum
}
func (boundedTieRates) Epoch() uint64               { return 0 }
func (boundedTieRates) MaxJobWIPC(int, int) float64 { return 1 }

// TestSelectMatchesNaiveBoundedTies drives both schedulers with pruning
// active over tie-band rates: identical picks (indices) to the verbatim
// old argmax loops, across randomized queues and k, replayed so memo
// hits are covered too.
func TestSelectMatchesNaiveBoundedTies(t *testing.T) {
	rng := stats.NewRNG(41)
	nextID := 0
	src := boundedTieRates{k: 4}
	maxit := &MAXIT{Rates: src}
	srpt := &SRPT{Rates: src}
	for trial := 0; trial < 400; trial++ {
		k := 1 + rng.Intn(4)
		js := randomQueue(rng, &nextID, 5, 10)
		for pass := 0; pass < 2; pass++ {
			wantM := refMAXITSelect(src, js, k)
			if got := maxit.Select(js, k); fmt.Sprint(got) != fmt.Sprint(wantM) {
				t.Fatalf("trial %d pass %d k=%d: MAXIT %v, want %v", trial, pass, k, got, wantM)
			}
			wantS := refSRPTSelect(src, js, k)
			if got := srpt.Select(js, k); fmt.Sprint(got) != fmt.Sprint(wantS) {
				t.Fatalf("trial %d pass %d k=%d: SRPT %v, want %v", trial, pass, k, got, wantS)
			}
		}
	}
}

// countingRates wraps a source and counts rate probes; withBound
// additionally forwards the pruning bound. Comparing probe counts with
// the bound on and off shows branch-and-bound actually skips work — and
// the shared reference check shows it skips only dominated work.
type countingRates struct {
	online.RateSource
	inst, wipc *int
}

func (c countingRates) InstTP(cos workload.Coschedule) float64 {
	*c.inst++
	return c.RateSource.InstTP(cos)
}
func (c countingRates) JobWIPC(cos workload.Coschedule, b int) float64 {
	*c.wipc++
	return c.RateSource.JobWIPC(cos, b)
}

type countingBoundedRates struct {
	countingRates
	bound rateBound
}

func (c countingBoundedRates) MaxJobWIPC(b, slots int) float64 { return c.bound.MaxJobWIPC(b, slots) }

// gradedRates is a slot-sum source with strong per-type rate asymmetry
// and a tight (exact) per-slot bound: type b in an s-slot coschedule
// always runs at base[b] scaled down 10% per co-runner. MAXIT's
// throughput bound only bites when types differ enough that candidates
// heavy in weak types are dominated by an already-scored strong-type
// candidate — near-symmetric rates (like the mini oracle table's) keep
// every candidate within the bound's slack, which is correct but prunes
// nothing, so the MAXIT half of the effectiveness test runs here.
type gradedRates struct {
	k    int
	base []float64
}

func (gradedRates) Name() string { return "graded" }
func (g gradedRates) K() int     { return g.k }
func (g gradedRates) JobWIPC(c workload.Coschedule, b int) float64 {
	return g.base[b] * (1 - 0.1*float64(len(c)-1))
}
func (g gradedRates) InstTP(c workload.Coschedule) float64 {
	var sum float64
	for _, typ := range c {
		sum += g.JobWIPC(c, typ)
	}
	return sum
}
func (gradedRates) Epoch() uint64 { return 0 }
func (g gradedRates) MaxJobWIPC(b, slots int) float64 {
	return g.base[b] * (1 - 0.1*float64(slots-1))
}

// TestPruningSkipsDominatedCandidates pins that the bound does real
// work: with it exposed, both schedulers make strictly fewer rate probes
// than the same Select with the bound hidden, while picking identical
// jobs. SRPT is driven over the oracle table (its remaining-work lower
// bound bites on any rates); MAXIT over the asymmetric graded source,
// where weak-type subtrees are provably dominated.
func TestPruningSkipsDominatedCandidates(t *testing.T) {
	tb := table(t)
	rng := stats.NewRNG(43)
	nextID := 0
	var prunedInst, prunedWIPC, plainInst, plainWIPC int
	graded := gradedRates{k: 4, base: []float64{0.2, 0.3, 0.9, 1.0}}
	prunedG := countingBoundedRates{countingRates{graded, &prunedInst, &prunedWIPC}, graded}
	plainG := countingRates{graded, &plainInst, &plainWIPC}
	prunedT := countingBoundedRates{countingRates{tb, &prunedInst, &prunedWIPC}, tb}
	plainT := countingRates{tb, &plainInst, &plainWIPC}
	for trial := 0; trial < 50; trial++ {
		k := tb.K()
		js := randomQueue(rng, &nextID, len(tb.Suite()), 14)
		gotP := fmt.Sprint((&MAXIT{Rates: prunedG}).Select(js, k))
		gotN := fmt.Sprint((&MAXIT{Rates: plainG}).Select(js, k))
		if gotP != gotN {
			t.Fatalf("trial %d: MAXIT with bound %s, without %s", trial, gotP, gotN)
		}
		gotP = fmt.Sprint((&SRPT{Rates: prunedT}).Select(js, k))
		gotN = fmt.Sprint((&SRPT{Rates: plainT}).Select(js, k))
		if gotP != gotN {
			t.Fatalf("trial %d: SRPT with bound %s, without %s", trial, gotP, gotN)
		}
	}
	if prunedInst >= plainInst {
		t.Errorf("MAXIT InstTP probes with bound %d, without %d — pruning skipped nothing", prunedInst, plainInst)
	}
	if prunedWIPC >= plainWIPC {
		t.Errorf("SRPT JobWIPC probes with bound %d, without %d — pruning skipped nothing", prunedWIPC, plainWIPC)
	}
}

// TestMAXITTiedSignatureNotLeakedAcrossQueues is the memo-soundness
// directed case: two queues share the type-count signature {A:2, B:1},
// every size-2 candidate ties on throughput, and the age tie-break picks
// a different multiset in each queue. A memo that cached the first tied
// argmax would replay {A,A} into the second queue.
func TestMAXITTiedSignatureNotLeakedAcrossQueues(t *testing.T) {
	src := quantizedRates{k: 2}
	m := &MAXIT{Rates: src}
	mk := func(ids [3]int, types [3]int) []*Job {
		js := make([]*Job, 3)
		for i := range js {
			js[i] = &Job{ID: ids[i], Type: types[i], Size: 1, Remaining: 1}
		}
		return js
	}
	// Queue 1: A0, A1, B2 — ages: {A,A}=1 < {A,B}=2, so AA wins.
	q1 := mk([3]int{0, 1, 2}, [3]int{0, 0, 1})
	// Queue 2: B3, A10, A11 — ages: {A,A}=21 > {A,B}=13, so AB wins.
	q2 := mk([3]int{3, 10, 11}, [3]int{1, 0, 0})
	for _, tc := range []struct {
		q    []*Job
		want string
	}{{q1, "[0 1]"}, {q2, "[1 0]"}} {
		want := refMAXITSelect(src, tc.q, 2)
		if fmt.Sprint(want) != tc.want {
			t.Fatalf("reference picked %v, want %s — test setup wrong", want, tc.want)
		}
		if got := m.Select(tc.q, 2); fmt.Sprint(got) != tc.want {
			t.Errorf("MAXIT picked %v, want %s (tied signature leaked through the memo?)", got, tc.want)
		}
	}
}

// TestMAXITMemoEpochInvalidation pins the epoch gate that replaced the
// old static-source-only memo: over a learner the memo is used between
// observations (same epoch → hit) and dropped the moment an observation
// bumps the source's epoch — a stale hit would replay a decision the
// learner no longer agrees with. The sampler is held in its sample phase
// (Epsilon 1), where InstTP steers toward the least-measured coschedule,
// so one observation verifiably flips the argmax.
func TestMAXITMemoEpochInvalidation(t *testing.T) {
	s := online.NewSampler(2, online.SamplerConfig{Epsilon: 1, Seed: 1})
	m := &MAXIT{Rates: s}
	js := jobs(0, 0, 1) // two type-0 jobs (IDs 0,1), one type-1 (ID 2)
	prog := []float64{1, 1}

	// Observe {0,1} so the unmeasured {0,0} outscores it during sampling.
	s.ObserveInterval(workload.NewCoschedule(0, 1), 1, prog)
	want1 := refMAXITSelect(s, js, 2)
	got1 := m.Select(js, 2)
	if fmt.Sprint(got1) != fmt.Sprint(want1) || fmt.Sprint(got1) != "[0 1]" {
		t.Fatalf("epoch 1: MAXIT %v, reference %v, want [0 1]", got1, want1)
	}
	if len(m.memo) != 1 {
		t.Fatalf("memo not populated over a learner: %d entries", len(m.memo))
	}
	if m.memoEpoch != s.Epoch() {
		t.Fatalf("memoEpoch %d, source epoch %d", m.memoEpoch, s.Epoch())
	}
	// Same epoch: the hit must reproduce the cold decision.
	if got := m.Select(js, 2); fmt.Sprint(got) != fmt.Sprint(got1) {
		t.Fatalf("same-epoch memo hit %v, want %v", got, got1)
	}

	// Observe {0,0} longer than {0,1}: now {0,1} is the least-measured
	// mix and the decision must flip. A memo not gated on the epoch would
	// replay [0 1] here.
	s.ObserveInterval(workload.NewCoschedule(0, 0), 1.5, prog)
	if s.Epoch() != 2 {
		t.Fatalf("sampler epoch %d after two observations, want 2", s.Epoch())
	}
	want2 := refMAXITSelect(s, js, 2)
	got2 := m.Select(js, 2)
	if fmt.Sprint(got2) != fmt.Sprint(want2) || fmt.Sprint(got2) != "[0 2]" {
		t.Fatalf("epoch 2: MAXIT %v, reference %v, want [0 2]", got2, want2)
	}
	if m.memoEpoch != 2 {
		t.Fatalf("memoEpoch %d after invalidation, want 2", m.memoEpoch)
	}
}

// TestSamplerPairwiseEpochs pins the epoch contract on both learners:
// constant until an effective observation, bumped by one per observation,
// and untouched by the degenerate intervals ObserveInterval ignores.
func TestSamplerPairwiseEpochs(t *testing.T) {
	prog := []float64{1, 1}
	cos := workload.NewCoschedule(0, 1)
	for _, src := range []interface {
		online.RateSource
		online.IntervalObserver
	}{
		online.NewSampler(2, online.SamplerConfig{Seed: 1}),
		online.NewPairwise(2, 4, online.PairwiseConfig{}),
	} {
		if src.Epoch() != 0 {
			t.Errorf("%s: fresh epoch %d, want 0", src.Name(), src.Epoch())
		}
		src.ObserveInterval(cos, 0, prog) // degenerate: dt <= 0
		src.ObserveInterval(nil, 1, nil)  // degenerate: empty coschedule
		if src.Epoch() != 0 {
			t.Errorf("%s: degenerate intervals bumped epoch to %d", src.Name(), src.Epoch())
		}
		src.ObserveInterval(cos, 1, prog)
		if src.Epoch() != 1 {
			t.Errorf("%s: epoch %d after one observation, want 1", src.Name(), src.Epoch())
		}
	}
}

// TestSelectRequiresArrivalOrder pins the documented queue invariant the
// schedulers rely on: every event loop hands Select an ID-ordered slice.
// (eventsim appends arrivals in ID order and compacts completions in
// place; this test is the contract's canary should that ever change.)
func TestSelectRequiresArrivalOrder(t *testing.T) {
	js := jobs(0, 1, 2, 3, 0, 1)
	for i := 1; i < len(js); i++ {
		if js[i].ID < js[i-1].ID {
			t.Fatal("test queue not ID-ordered")
		}
	}
	sel := (&FCFS{}).Select(js, 4)
	for i, idx := range sel {
		if idx != i {
			t.Errorf("FCFS over an ID-ordered queue must select the identity prefix, got %v", sel)
		}
	}
}

// TestCandidatesCountsTheWalk pins the candidate count SRPT chooses its
// walk by to the number of count vectors the odometer actually visits,
// and its saturation at the limit.
func TestCandidatesCountsTheWalk(t *testing.T) {
	rng := stats.NewRNG(53)
	nextID := 0
	for trial := 0; trial < 500; trial++ {
		js := randomQueue(rng, &nextID, 1+rng.Intn(7), 16)
		m := min(1+rng.Intn(6), len(js))
		var q Summary
		q.build(js, true)
		var e enumerator
		e.reset(&q)
		walked := 0
		for ok := e.firstCandidate(m); ok; ok = e.next() {
			walked++
		}
		if got := e.candidates(m, 1<<30); got != walked {
			t.Fatalf("trial %d: caps %v, m=%d: candidates %d, the walk visits %d", trial, q.caps, m, got, walked)
		}
		if limit := 1 + rng.Intn(40); e.candidates(m, limit) != min(walked, limit) {
			t.Fatalf("trial %d: caps %v, m=%d: candidates capped at %d gives %d, want %d",
				trial, q.caps, m, limit, e.candidates(m, limit), min(walked, limit))
		}
	}
}
