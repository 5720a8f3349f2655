package sched

import (
	"fmt"
	"slices"
)

// Summary is a job queue grouped by type, each type's jobs in the order
// its scheduler prefers them: queue (arrival) order for MAXIT and MAXTP,
// (Remaining, queue order) for SRPT. It is what their decision cores
// read; a decision takes a prefix of some groups.
//
// A summary comes about in one of two ways. Select(jobs, k) builds one
// from scratch over the slice it is handed. An eventsim.Server whose
// scheduler is an unwrapped MAXIT, SRPT or MAXTP keeps one up to date
// instead (Attach): between two events a queue gains at most one arrival
// and loses only completed jobs, and only the running jobs' remaining
// work moves, so Add, Progress, Remove and Clear update the summary in
// place and no decision regroups the queue. Both ways run the same
// decision core, so they select the same jobs.
type Summary struct {
	core  decider // the scheduler deciding from a maintained summary
	byRem bool    // preference inside a type: (Remaining, queue order), else queue order
	n     int     // jobs summarised
	types []int   // distinct types present, ascending; slot ti is types[ti]
	caps  []int   // caps[ti]: jobs of types[ti]

	// A maintained summary keeps type t's jobs in grp[t], preference
	// order, and derives caps from them at each Select. out is the
	// selection Select returns and sel its count per slot.
	grp [][]*Job
	out []*Job
	sel []int

	// A built summary holds the indices into jobs sorted by (type,
	// preference) in idx, slot ti's run starting at grpOff[ti], and
	// returns its selections as indices in pos. tcnt, tbuf and rem are
	// build scratch; remAt mirrors rem aligned with idx.
	jobs   []*Job
	idx    []int
	grpOff []int
	pos    []int
	tcnt   []int
	tbuf   []int
	rem    []float64
	remAt  []float64
}

// decider is the decision core MAXIT, SRPT and MAXTP run from a
// summary, built or maintained: decide returns how many jobs each type
// slot contributes, the first ones of its group.
type decider interface {
	decide(q *Summary, k int) []int
}

// Summarizes reports whether s decides from a maintained summary: an
// unwrapped MAXIT, SRPT or MAXTP. FCFS, LJF, Random and any wrapper
// around a scheduler decide only through Select.
func Summarizes(s Scheduler) bool {
	switch s.(type) {
	case *MAXIT, *SRPT, *MAXTP:
		return true
	}
	return false
}

// Attach readies q, which must be empty, as the maintained summary s
// decides from. s must satisfy Summarizes. The summary belongs to one
// queue: the caller reports every arrival (Add), every interval the
// selected jobs ran (Progress), every completion (Remove) and every
// eviction (Clear).
func (q *Summary) Attach(s Scheduler) {
	q.core = s.(decider)
	_, q.byRem = s.(*SRPT)
}

// Select runs the scheduler's decision over the maintained summary and
// returns the jobs to run on k contexts, grouped by ascending type and
// in preference order within a type. The slice is the summary's scratch,
// valid until the next Select, Add, Remove or Clear.
func (q *Summary) Select(k int) []*Job {
	if q.n == 0 {
		return nil
	}
	q.caps = q.caps[:0]
	for _, t := range q.types {
		q.caps = append(q.caps, len(q.grp[t]))
	}
	counts := q.core.decide(q, k)
	if q.byRem {
		q.sel = append(q.sel[:0], counts...)
	}
	q.out = q.out[:0]
	for ti, c := range counts {
		for _, j := range q.grp[q.types[ti]][:c] {
			q.out = append(q.out, j)
		}
	}
	return q.out
}

// Add enqueues an arrival: the job goes behind its type's jobs, or for
// SRPT behind every job of its type with no more remaining work — where
// a stable sort of the queue would put the newest job.
func (q *Summary) Add(j *Job) {
	t := j.Type
	for t >= len(q.grp) {
		q.grp = append(q.grp, nil)
	}
	g := append(q.grp[t], j)
	for at := len(g) - 1; q.byRem && at > 0 && g[at-1].Remaining > j.Remaining; at-- {
		g[at], g[at-1] = g[at-1], j
	}
	q.grp[t] = g
	if len(g) == 1 {
		ti, _ := slices.BinarySearch(q.types, t)
		q.types = slices.Insert(q.types, ti, t)
	}
	q.n++
	q.sel = q.sel[:0]
}

// Progress restores the preference order after the last selection ran
// for an interval. Only SRPT's order can move. Same-type running jobs
// lose the same work, so they stay in nondecreasing Remaining order and
// ahead of their type's waiting jobs, whose work does not move; but
// rounding can make two of them equal (two adjacent values whose exact
// differences are both halfway cases round to one even value), with
// their IDs in the wrong order. Each running prefix is therefore
// re-sorted by (Remaining, ID), which is queue order on ties as the
// queue is ID-ordered.
func (q *Summary) Progress() {
	if !q.byRem {
		return
	}
	for ti, c := range q.sel {
		g := q.grp[q.types[ti]][:c]
		for i := 1; i < len(g); i++ {
			v := g[i]
			j := i
			for j > 0 && (g[j-1].Remaining > v.Remaining ||
				g[j-1].Remaining == v.Remaining && g[j-1].ID > v.ID) {
				g[j] = g[j-1]
				j--
			}
			g[j] = v
		}
	}
}

// Remove takes completed jobs out of the summary. Only running jobs
// complete, so each is in its group's selected prefix.
func (q *Summary) Remove(done []*Job) {
	for _, j := range done {
		t := j.Type
		g := q.grp[t]
		i := slices.Index(g, j)
		copy(g[i:], g[i+1:])
		g[len(g)-1] = nil // no pointer to a job the caller may recycle
		g = g[:len(g)-1]
		q.grp[t] = g
		q.n--
		if len(g) == 0 {
			ti, _ := slices.BinarySearch(q.types, t)
			q.types = slices.Delete(q.types, ti, ti+1)
		}
	}
	q.sel = q.sel[:0]
}

// Clear empties the summary, as when a crash evicts the whole queue.
func (q *Summary) Clear() {
	for _, t := range q.types {
		clear(q.grp[t])
		q.grp[t] = q.grp[t][:0]
	}
	q.types, q.sel, q.n = q.types[:0], q.sel[:0], 0
}

// Check reports how q differs from the summary built from scratch over
// jobs, the queue it summarises, or nil when the two agree: the same
// types, counts and jobs in the same order in every group.
func (q *Summary) Check(jobs []*Job) error {
	var b Summary
	if len(jobs) > 0 {
		b.build(jobs, q.byRem)
	}
	var caps []int
	for _, t := range q.types {
		caps = append(caps, len(q.grp[t]))
	}
	if q.n != b.n || !slices.Equal(q.types, b.types) || !slices.Equal(caps, b.caps) {
		return fmt.Errorf("sched: summary has %d jobs of types %v counts %v, the queue %d of types %v counts %v",
			q.n, q.types, caps, b.n, b.types, b.caps)
	}
	for ti, c := range caps {
		for j := 0; j < c; j++ {
			if got, want := q.at(ti, j), b.at(ti, j); got != want {
				return fmt.Errorf("sched: type %d position %d holds job %d, the queue's order job %d",
					q.types[ti], j, got.ID, want.ID)
			}
		}
	}
	return nil
}

// at returns slot ti's j-th job in preference order.
func (q *Summary) at(ti, j int) *Job {
	if q.jobs != nil {
		return q.jobs[q.idx[q.grpOff[ti]+j]]
	}
	return q.grp[q.types[ti]][j]
}

// indices returns a built summary's selection for counts — the first
// counts[ti] jobs of each slot — as indices into the slice it was built
// from, in the summary's scratch.
func (q *Summary) indices(counts []int) []int {
	q.pos = q.pos[:0]
	for ti, c := range counts {
		for _, i := range q.idx[q.grpOff[ti]:][:c] {
			q.pos = append(q.pos, i)
		}
	}
	return q.pos
}

// remaining fills h with the Remaining of slot ti's first len(h) jobs
// in preference order. A built summary reads them from remAt, so it
// must have been built for SRPT's order.
func (q *Summary) remaining(ti int, h []float64) {
	if q.jobs != nil {
		for j, r := range q.remAt[q.grpOff[ti]:][:len(h)] {
			h[j] = r
		}
		return
	}
	for j, job := range q.grp[q.types[ti]][:len(h)] {
		h[j] = job.Remaining
	}
}

// build summarises jobs from scratch with the given within-type
// preference (byRem false: queue order; true: shortest remaining first,
// ties in queue order — SRPT's order), reusing all scratch.
//
// The grouping is a two-pass counting scatter: scattering in queue
// order is already (type, queue order), and SRPT's preference needs only
// a per-group insertion sort on top. The counting scratch grows with the
// largest type; types index a table's suite, so it stays small.
func (q *Summary) build(jobs []*Job, byRem bool) {
	q.jobs, q.byRem, q.n = jobs, byRem, len(jobs)
	if cap(q.idx) < len(jobs) {
		q.idx = make([]int, 0, len(jobs))
		q.tbuf = make([]int, 0, len(jobs))
		q.rem = make([]float64, 0, len(jobs))
		q.remAt = make([]float64, 0, len(jobs))
	}
	q.idx, q.tbuf = q.idx[:len(jobs)], q.tbuf[:len(jobs)]
	// One pass over the job pointers copies the fields every later loop
	// needs into dense scratch; everything below runs on flat arrays.
	maxT := 0
	if byRem {
		q.rem, q.remAt = q.rem[:len(jobs)], q.remAt[:len(jobs)]
		for i, j := range jobs {
			q.tbuf[i], q.rem[i] = j.Type, j.Remaining
			if j.Type > maxT {
				maxT = j.Type
			}
		}
	} else {
		for i, j := range jobs {
			q.tbuf[i] = j.Type
			if j.Type > maxT {
				maxT = j.Type
			}
		}
	}
	q.types, q.grpOff, q.caps = q.types[:0], q.grpOff[:0], q.caps[:0]
	if cap(q.tcnt) < maxT+1 {
		q.tcnt = make([]int, maxT+1)
	}
	tcnt := q.tcnt[:maxT+1]
	clear(tcnt)
	for _, t := range q.tbuf {
		tcnt[t]++
	}
	// Group directory straight from the histogram, then exclusive
	// prefix sums in place for the scatter.
	sum := 0
	for t, c := range tcnt {
		if c > 0 {
			q.types = append(q.types, t)
			q.grpOff = append(q.grpOff, sum)
			q.caps = append(q.caps, c)
		}
		tcnt[t] = sum
		sum += c
	}
	q.grpOff = append(q.grpOff, len(jobs))
	if byRem {
		for i, t := range q.tbuf {
			s := tcnt[t]
			q.idx[s], q.remAt[s] = i, q.rem[i]
			tcnt[t] = s + 1
		}
	} else {
		for i, t := range q.tbuf {
			q.idx[tcnt[t]] = i
			tcnt[t]++
		}
	}
	if byRem {
		// Groups are in queue order; SRPT wants (Remaining, queue order),
		// so a stable insertion sort on Remaining alone keeps the
		// tie-break. idx and its remAt mirror move together.
		for ti := range q.types {
			lo, hi := q.grpOff[ti], q.grpOff[ti+1]
			for i := lo + 1; i < hi; i++ {
				v, rv := q.idx[i], q.remAt[i]
				j := i
				for j > lo && q.remAt[j-1] > rv {
					q.idx[j], q.remAt[j] = q.idx[j-1], q.remAt[j-1]
					j--
				}
				q.idx[j], q.remAt[j] = v, rv
			}
		}
	}
}
