// Package sched implements the four online schedulers the paper compares
// in Section VI:
//
//   - FCFS: run the oldest jobs, no knowledge needed.
//   - MAXIT: run the job combination with the highest instantaneous
//     throughput; ties go to the oldest jobs.
//   - SRPT: run the combination with the smallest total remaining
//     execution time, accounting for each job's rate in that combination.
//   - MAXTP: follow the offline linear-programming schedule (internal/core)
//     by always picking the optimal coschedule that is furthest behind its
//     ideal time fraction; fall back to MAXIT when none is composable.
//
// Schedulers select jobs at every scheduling event (arrival or completion)
// with free preemption and zero context-switch cost, exactly as in the
// paper's idealised study.
//
// MAXIT and SRPT decide over an online.RateSource — the oracle performance
// table in the paper's perfect-knowledge setting, or a learned estimator
// from internal/online in the knowledge-gap experiments. MAXTP is
// inherently oracular: its offline linear-programming phase needs the full
// table, so it cannot run over a learned source.
//
// Select is the hot path of every experiment (it runs at every simulated
// arrival and completion), so the knowledge-driven schedulers carry
// per-instance scratch and enumerate candidates without allocating, prune
// dominated candidate subtrees against an admissible per-slot rate bound
// when the source exposes one, and MAXIT memoizes the winning multiset
// per queue signature for as long as the source's rate epoch stands (see
// DESIGN.md, "Hot path & memoization").
package sched

import (
	"fmt"
	"math"
	"strings"

	"symbiosched/internal/core"
	"symbiosched/internal/online"
	"symbiosched/internal/perfdb"
	"symbiosched/internal/workload"
)

// Job is a job in the system, as seen by schedulers.
type Job struct {
	// ID is unique per experiment and increases with arrival order.
	ID int
	// Type is the global benchmark index.
	Type int
	// Size is the job's total work, Remaining what is left.
	Size, Remaining float64
	// Arrival is the job's arrival time.
	Arrival float64
	// Retries counts how often the job was re-queued after a server
	// crash (internal/fault); zero for jobs that never saw one.
	Retries int
}

// Scheduler picks which jobs run on the K contexts.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Select returns the indices into jobs of the jobs to run, at most k.
	// Work-conserving schedulers return min(k, len(jobs)) indices.
	//
	// Contract: jobs arrive in nondecreasing ID order — the arrival order
	// every event loop in this repo maintains (queues append on arrival
	// and compact in place on completion). FCFS relies on it outright and
	// the others use it to keep within-type preference sorts cheap; it is
	// pinned by TestSelectRequiresArrivalOrder. The returned slice is
	// owned by the scheduler (or shared, for FCFS) and is only valid
	// until the next Select call; callers must not mutate or retain it.
	// In turn, implementations must not keep a *Job to read after Select
	// returns: the event loops recycle a completed job's storage for a
	// later arrival.
	Select(jobs []*Job, k int) []int
}

// Observer is implemented by the schedulers that track simulated time:
// Observe informs them that the coschedule cos just ran for dt time units
// (MAXTP uses it to track its time fractions). Event loops assert for it
// at the call site, so stateless schedulers need no stub.
type Observer interface {
	Observe(cos workload.Coschedule, dt float64)
}

// keyedRates is the uint64 probe fast path: rate sources that can be
// queried by a perfdb.Key avoid re-deriving the key per candidate.
// *perfdb.Table and online.Oracle implement it.
type keyedRates interface {
	InstTPByKey(key uint64) float64
	JobWIPCByKey(key uint64, b int) float64
}

// denseRates is the batch probe fast path on top of keyedRates: one call
// returns every type's WIPC in the keyed coschedule as a dense slice (the
// same stored values JobWIPCByKey serves, so scores stay bit-identical),
// turning SRPT's per-type map probes into one probe per candidate.
// *perfdb.Table and online.Oracle implement it.
type denseRates interface {
	TypeWIPCsByKey(key uint64) []float64
}

// tieTol is the instantaneous-throughput tolerance within which MAXIT
// considers two candidates tied and defers to job age.
const tieTol = 1e-12

// Names lists the Section VI schedulers New constructs, in the paper's
// order.
var Names = []string{"FCFS", "MAXIT", "SRPT", "MAXTP"}

// New builds a fresh scheduler by name over the given rate source and
// workload (the workload is only needed by MAXTP's offline LP phase).
// Stateful schedulers (MAXIT/SRPT over a learning source, MAXTP always)
// must not be shared across runs or servers, so callers construct one per
// simulation. MAXTP requires perfect knowledge: rs must be the oracle
// table (or the online.Oracle wrapper around it).
func New(name string, rs online.RateSource, w workload.Workload) (Scheduler, error) {
	switch name {
	case "FCFS":
		return &FCFS{}, nil
	case "MAXIT":
		return &MAXIT{Rates: rs}, nil
	case "SRPT":
		return &SRPT{Rates: rs}, nil
	case "MAXTP":
		t, err := oracleTable(rs)
		if err != nil {
			return nil, err
		}
		return NewMAXTP(t, w)
	default:
		return nil, fmt.Errorf("sched: unknown scheduler %q (want one of %s)",
			name, strings.Join(Names, ", "))
	}
}

// oracleTable unwraps the oracle performance table from a rate source, for
// the schedulers whose offline phase needs the full database.
func oracleTable(rs online.RateSource) (*perfdb.Table, error) {
	switch s := rs.(type) {
	case *perfdb.Table:
		return s, nil
	case online.Oracle:
		return s.Table, nil
	default:
		return nil, fmt.Errorf("sched: MAXTP needs the oracle table, not the %s estimator (its offline LP phase requires full knowledge)", rs.Name())
	}
}

// FCFS runs jobs strictly in arrival order. It carries a lazily grown
// per-instance prefix for machines wider than the shared one, so Select
// stays allocation-free at steady state at any width.
type FCFS struct {
	// idx extends the shared identity prefix beyond 64 entries; it grows
	// monotonically and is reused across Select calls.
	idx []int
}

// Name implements Scheduler.
func (*FCFS) Name() string { return "FCFS" }

// identity is the shared index prefix FCFS serves: with jobs already in
// arrival order (the Select contract), the oldest min(k, n) jobs are
// simply the first min(k, n) indices.
var identity = func() []int {
	ix := make([]int, 64)
	for i := range ix {
		ix[i] = i
	}
	return ix
}()

// Select implements Scheduler: the min(k, n) oldest jobs, which under the
// arrival-order contract is the identity prefix — no sort, and no
// allocation once the instance prefix has grown to the machine width.
func (f *FCFS) Select(jobs []*Job, k int) []int {
	n := min(k, len(jobs))
	if n <= len(identity) {
		return identity[:n]
	}
	for len(f.idx) < n {
		f.idx = append(f.idx, len(f.idx))
	}
	return f.idx[:n]
}

// MAXIT selects the combination with the highest instantaneous throughput
// according to its rate source; among equal-throughput combinations it
// prefers the oldest jobs. Over a learning source whose sample phase
// inflates under-measured coschedules, the same argmax implements
// SOS-style sampling.
//
// MAXIT carries per-instance scratch and a per-epoch decision memo;
// instances must not be shared across goroutines.
type MAXIT struct {
	Rates online.RateSource
	// Met, when non-nil, receives decision counters (memo hits/misses,
	// candidates scored, subtrees pruned, tie-band events). Nil — the
	// default — keeps Select on the uninstrumented path.
	Met *Metrics

	enum enumerator
	sum  Summary // Select's from-scratch summary
	// memo caches the winning count vector per queue signature for one
	// rate epoch: the source answers identically within an epoch (the
	// oracle's never changes; a learner bumps it per observation), so
	// hits stay valid between observations and the map is cleared when
	// the epoch moves. Keys whose argmax involved a throughput tie are
	// never stored: ties are broken by job age, which depends on the
	// concrete job IDs behind the signature, not the signature alone.
	memo      map[uint64]uint64
	memoEpoch uint64
}

// Name implements Scheduler.
func (m *MAXIT) Name() string { return "MAXIT" }

// Select implements Scheduler: it summarises jobs from scratch and runs
// the decision a server's maintained summary runs.
func (m *MAXIT) Select(jobs []*Job, k int) []int {
	if len(jobs) == 0 {
		return nil
	}
	m.sum.build(jobs, false)
	return m.sum.indices(m.decide(&m.sum, k))
}

// decide runs the argmax over the queue summary q and returns the
// winning count per type slot. MAXTP's fallback enters here with its own
// summary; the decision memo lives on the MAXIT instance either way.
func (m *MAXIT) decide(q *Summary, k int) []int {
	e := &m.enum
	e.reset(q)
	memoKey, memoOK := e.memoKey(k)
	if memoOK {
		if ep := m.Rates.Epoch(); ep != m.memoEpoch {
			// The source's rates moved: every cached decision is stale.
			// clear keeps the buckets, so re-filling does not allocate.
			clear(m.memo)
			m.memoEpoch = ep
		}
		if v, hit := m.memo[memoKey]; hit {
			m.Met.hit()
			return e.unpackCounts(v)
		}
		m.Met.miss()
	}
	kr, keyed := m.Rates.(keyedRates)
	n := min(k, q.n)
	prune := e.setBounds(m.Rates, n)
	bestTP, bestAge := math.Inf(-1), math.Inf(1)
	tied := false
	var scored, pruned uint64
	for ok := e.firstCandidate(n); ok; {
		if prune {
			// A -Inf threshold never dominates a finite bound, so the
			// first candidate is always scored.
			if p, dom := e.dominatedTP(bestTP - tieTol); dom {
				pruned++
				ok = e.nextFrom(p)
				continue
			}
		}
		scored++
		var tp float64
		if keyed {
			e.buildKey()
			tp = kr.InstTPByKey(e.cosKey)
		} else {
			e.buildCos()
			tp = m.Rates.InstTP(e.cos)
		}
		// Job age only separates candidates inside the tie band, so it
		// is summed lazily; the update branches are the original ones.
		if tp > bestTP-tieTol {
			age := 0.0
			for ti, c := range e.counts {
				for j := 0; j < c; j++ {
					age += float64(q.at(ti, j).ID)
				}
			}
			if tp > bestTP+tieTol {
				e.keepBest()
				bestTP, bestAge = tp, age
			} else {
				tied = true
				if age < bestAge {
					e.keepBest()
					bestTP, bestAge = tp, age
				}
			}
		}
		ok = e.next()
	}
	if m.Met != nil {
		m.Met.Scored.Add(scored)
		m.Met.Pruned.Add(pruned)
		if tied {
			m.Met.TieBand.Inc()
		}
	}
	if memoOK && !tied {
		if m.memo == nil {
			m.memo = make(map[uint64]uint64)
		}
		m.memo[memoKey] = packCounts(e.best)
	}
	return e.best
}

// SRPT selects the combination with the smallest sum of remaining
// execution times, where each job's remaining execution time accounts for
// its rate in that particular combination (Section VI) — estimated rates
// when the source is a learner.
//
// SRPT carries per-instance scratch; instances must not be shared across
// goroutines. Its decision depends on the jobs' remaining work, not just
// the queued type counts, so it cannot reuse MAXIT's multiset memo.
type SRPT struct {
	Rates online.RateSource
	// Met, when non-nil, receives decision counters (candidates scored,
	// subtrees pruned). Nil — the default — keeps Select on the
	// uninstrumented path.
	Met *Metrics

	enum enumerator
	sum  Summary // Select's from-scratch summary
}

// Name implements Scheduler.
func (s *SRPT) Name() string { return "SRPT" }

// Select implements Scheduler: it summarises jobs from scratch and runs
// the decision a server's maintained summary runs.
func (s *SRPT) Select(jobs []*Job, k int) []int {
	if len(jobs) == 0 {
		return nil
	}
	s.sum.build(jobs, true)
	return s.sum.indices(s.decide(&s.sum, k))
}

// decide runs the argmin over the queue summary q and returns the
// winning count per type slot.
func (s *SRPT) decide(q *Summary, k int) []int {
	s.enum.reset(q)
	n := min(k, q.n)
	// Pruning pays for its set-up (rate bounds, cost floors, a seed
	// score) only over enough candidates: below srptPruneFrom the full
	// walk is faster, and with n == q.n it visits exactly one.
	return s.walk(q, n, n < q.n && s.enum.candidates(n, srptPruneFrom) >= srptPruneFrom)
}

// walk runs the argmin over candidates of n slots from the summary q,
// which the enumerator was reset to, pruned by branch and bound when
// prune is set and the source exposes rate bounds.
func (s *SRPT) walk(q *Summary, n int, prune bool) []int {
	e := &s.enum
	kr, keyed := s.Rates.(keyedRates)
	dr, dense := s.Rates.(denseRates)
	if dense {
		e.primeRateCache(s.Rates.Epoch())
	}
	e.setHeads(q, n)
	prune = prune && e.setBounds(s.Rates, n)
	thr := math.Inf(1)
	var scored, pruned uint64
	if prune {
		e.setRemBounds(n)
		// Seed the pruning threshold from the greedy smallest-remaining
		// candidate, so subtrees that provably cannot reach its score are
		// dead from the very first dominance check instead of only after
		// the walk stumbles on a good candidate. The threshold sits one
		// ulp above the seed's score: every candidate scoring at or below
		// the seed — the winner among them — is still walked, so the pick
		// stays the first minimal candidate in enumeration order,
		// bit-identical to the unseeded walk.
		e.greedySeed(n)
		scored++
		thr = math.Nextafter(s.score(e, kr, keyed, dr, dense, math.Inf(1)), math.Inf(1))
	}
	bestSum := math.Inf(1)
	for ok := e.firstCandidate(n); ok; {
		if prune {
			// A +Inf threshold is never reached by a finite lower bound,
			// so the first candidate is always scored.
			if p, dom := e.dominatedSum(min(bestSum, thr)); dom {
				pruned++
				ok = e.nextFrom(p)
				continue
			}
		}
		scored++
		sum := s.score(e, kr, keyed, dr, dense, bestSum)
		if sum < bestSum {
			e.keepBest()
			bestSum = sum
		}
		ok = e.next()
	}
	if s.Met != nil {
		s.Met.Scored.Add(scored)
		s.Met.Pruned.Add(pruned)
	}
	return e.best
}

// srptPruneFrom is the candidate count from which SRPT prunes its walk.
// BenchmarkSRPTWalk times both walks by candidate count: the full walk
// is up to twice as fast over a few candidates, the two cross between
// 10 and 20 candidates depending on the run, and pruning wins by
// 1.2–1.5× from 24 on (DESIGN.md, "When SRPT prunes").
const srptPruneFrom = 17

// score prices the enumerator's current candidate: each job's remaining
// work divided by its type's rate in that coschedule. One rate probe per
// type — same-type jobs share their rate in a coschedule — and the
// per-job divisions accumulate in the original job order (read from the
// head arrays setHeads filled), so the sum is
// bit-identical to the pre-pruning walk's. Scoring may stop early once
// the partial sum reaches limit: remaining terms are non-negative, so the
// candidate cannot improve any more, and callers ignore non-improving
// scores.
func (s *SRPT) score(e *enumerator, kr keyedRates, keyed bool, dr denseRates, dense bool, limit float64) float64 {
	if keyed || dense {
		e.buildKey()
	} else {
		e.buildCos()
	}
	var rates []float64
	if dense {
		rates = e.ratesFor(dr, e.cosKey)
	}
	var sum float64
	for ti, c := range e.counts {
		if c == 0 {
			continue
		}
		var rate float64
		if dense {
			rate = rates[e.types[ti]]
		} else if keyed {
			rate = kr.JobWIPCByKey(e.cosKey, e.types[ti])
		} else {
			rate = s.Rates.JobWIPC(e.cos, e.types[ti])
		}
		lo := ti * e.m
		for j := lo; j < lo+c; j++ {
			sum += e.hrem[j] / rate
		}
		if sum >= limit {
			break
		}
	}
	return sum
}

// MAXTP implements the paper's practical use of the linear-programming
// methodology: an offline phase computes the optimal coschedules and their
// time fractions; at run time the scheduler selects, among the optimal
// coschedules composable from the jobs in the system, the one furthest
// behind its ideal fraction, falling back to MAXIT when none is
// composable.
type MAXTP struct {
	Table *perfdb.Table
	// fractions holds the LP support (non-zero optimal fractions);
	// fracTypes/fracCounts/fracKeys are its per-fraction type multiset and
	// perfdb key, precomputed so a decision never re-derives them.
	fractions  []core.Fraction
	fracTypes  [][]int
	fracCounts [][]int
	fracKeys   []uint64
	// selected[fi] is the time fractions[fi]'s coschedule has run, and
	// elapsed the time observed in all.
	selected []float64
	elapsed  float64
	fallback *MAXIT

	sum    Summary // Select's from-scratch summary
	slotOf []int   // per table type: its slot in the decided summary + 1, 0 when absent
	counts []int   // the LP pick's count per slot
}

// NewMAXTP runs the offline phase for a workload and returns the scheduler.
func NewMAXTP(t *perfdb.Table, w workload.Workload) (*MAXTP, error) {
	opt, err := core.Optimal(t, w)
	if err != nil {
		return nil, err
	}
	m := &MAXTP{
		Table:     t,
		fractions: opt.NonZero(1e-9),
		fallback:  &MAXIT{Rates: t},
		slotOf:    make([]int, len(t.Suite())),
	}
	m.selected = make([]float64, len(m.fractions))
	for _, f := range m.fractions {
		types := f.Cos.Types()
		counts := make([]int, len(types))
		for i, b := range types {
			counts[i] = f.Cos.Count(b)
		}
		m.fracTypes = append(m.fracTypes, types)
		m.fracCounts = append(m.fracCounts, counts)
		m.fracKeys = append(m.fracKeys, perfdb.Key(f.Cos))
	}
	return m, nil
}

// Name implements Scheduler.
func (m *MAXTP) Name() string { return "MAXTP" }

// Select implements Scheduler: it summarises jobs from scratch and runs
// the decision a server's maintained summary runs.
func (m *MAXTP) Select(jobs []*Job, k int) []int {
	if len(jobs) == 0 {
		return nil
	}
	m.sum.build(jobs, false)
	return m.sum.indices(m.decide(&m.sum, k))
}

// decide picks the composable LP coschedule furthest behind its ideal
// fraction from the queue summary q, or defers to MAXIT over the same
// summary, and returns the count per type slot. Composability reads the
// summary's per-type counts through slotOf, one pass over its types.
func (m *MAXTP) decide(q *Summary, k int) []int {
	clear(m.slotOf)
	for ti, t := range q.types {
		if t < len(m.slotOf) {
			m.slotOf[t] = ti + 1
		}
	}
	bestIdx, bestDeficit := -1, math.Inf(-1)
	for fi, f := range m.fractions {
		if len(f.Cos) > q.n {
			continue
		}
		composable := true
		for i, b := range m.fracTypes[fi] {
			if s := m.slotOf[b]; s == 0 || q.caps[s-1] < m.fracCounts[fi][i] {
				composable = false
				break
			}
		}
		if !composable {
			continue
		}
		deficit := f.X*m.elapsed - m.selected[fi]
		if deficit > bestDeficit {
			bestIdx, bestDeficit = fi, deficit
		}
	}
	// Use the optimal schedule only while it is behind its ideal fraction;
	// coschedules that are ahead of schedule would be run at the expense of
	// waiting jobs for no long-run throughput benefit, so defer to MAXIT —
	// over the same summary.
	if bestIdx < 0 || bestDeficit <= 0 {
		return m.fallback.decide(q, k)
	}
	if cap(m.counts) < len(q.types) {
		m.counts = make([]int, len(q.types))
	}
	m.counts = m.counts[:len(q.types)]
	clear(m.counts)
	for i, b := range m.fracTypes[bestIdx] {
		m.counts[m.slotOf[b]-1] = m.fracCounts[bestIdx][i]
	}
	return m.counts
}

// Observe implements Observer: track elapsed time and the time each LP
// coschedule has run. Only the support's times are ever read, so an
// interval of any other coschedule moves elapsed alone.
func (m *MAXTP) Observe(cos workload.Coschedule, dt float64) {
	m.elapsed += dt
	key := perfdb.Key(cos)
	for fi, fk := range m.fracKeys {
		if fk == key {
			m.selected[fi] += dt
		}
	}
}
