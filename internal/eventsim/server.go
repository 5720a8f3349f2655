package eventsim

import (
	"fmt"
	"math"
	"slices"

	"symbiosched/internal/numeric"
	"symbiosched/internal/online"
	"symbiosched/internal/perfdb"
	"symbiosched/internal/sched"
	"symbiosched/internal/workload"
)

// Server is one machine's share of an event-driven experiment: a job
// queue, the scheduler that picks which jobs occupy the machine's K
// contexts, and the performance table that sets each running job's rate.
// It exposes the stepping primitives — reschedule, time-to-next-completion,
// advance — that event loops compose: the single-server loops in this
// package drive one Server, and a Group multiplexes a fleet of them on
// one event heap.
//
// The table is the ground truth: jobs always progress at the true
// per-coschedule rates. Decisions may run on less: the scheduler decides
// over whatever rate source it was built with, and SetRates exposes a
// (possibly learned) source to symbiosis-aware dispatchers. SetObserver
// installs the online-learning measurement hook: after every advance the
// observer receives the interval's true coschedule, duration and per-slot
// progress — what hardware counters would report.
//
// The caller owns the clock. The protocol per event is:
//
//  1. Reschedule every server whose job set changed since the last event
//     (arrival or completion at that server).
//  2. dt = min over servers of TimeToNextCompletion(), capped by the next
//     arrival.
//  3. Advance every server by dt; completed jobs are appended to the
//     caller's buffer.
//
// A Server accumulates its own busy/empty/work integrals so per-server
// utilisation survives multiplexing.
//
// Each context is a slot holding its job, the job's type and its
// remaining work, inline in the server for K <= 4 and in the fleet's
// slot slab above that. Stepping reads the slots, never the jobs: a job
// that keeps its context keeps its slot's work across reschedules, and
// Job.Remaining is written back when the job leaves its context
// (completion, preemption, crash), when a reschedule moves it to another
// slot, and, on a server whose decision reads it (an SRPT summary, or a
// scheduler handed the queue through Select), after every Advance.
// Reschedule resolves the slots' canonical coschedule to its table entry
// by rank (one slice index); every running job's rate is read from that
// entry, which every server running the coschedule shares, and the time
// to the next completion is refreshed with the progress, dividing the
// same remaining work by the same rate a fresh scan would. The stepping
// path allocates nothing.
type Server struct {
	// The fields one farm event reads lead, in the order a dispatch
	// probe, an Add, an Advance and a Reschedule reach them
	// (TestServerHotLines pins the layout); what only instruments,
	// observers, learners, non-FCFS deciders and faults use follows.
	failed     bool
	tableRates bool          // rates is table itself or online.Oracle over it
	mode       uint8         // how the server decides: byFCFS, bySummary or bySelect
	hooks      bool          // met, obs or schedObs installed
	writeBack  bool          // the decision reads running jobs' Remaining
	k          uint8         // contexts
	nslot      uint8         // occupied slots
	jobs       []*sched.Job  // queue in arrival (ID) order
	entry      *perfdb.Entry // table entry of the slots' coschedule; nil when idle or stale
	table      *perfdb.Table // ground-truth rates
	clock      float64       // local clock of a Group's server
	ttc        float64       // cached time to next completion (+Inf when idle or stale)

	busy, work, empty numeric.KahanSum
	dispatched        int
	inline            [inlineSlots]slot // the slots of a server with K <= inlineSlots

	met      *ServerMetrics // nil: uninstrumented
	q        *sched.Summary // the summary of a bySummary server
	sched    sched.Scheduler
	schedObs sched.Observer // sched, when it observes time; else nil
	obs      online.IntervalObserver
	wide     *[maxK]slot      // the slots of a server with K > inlineSlots, from the fleet slab
	learn    *learnScratch    // nil until SetRates or a learned probe needs it
	down     numeric.KahanSum // time spent failed (neither busy nor empty)
	_        [8]byte          // rounds the server to five whole cache lines
}

// slot is one context's occupant: the job, and the type and remaining
// work the server steps it with.
type slot struct {
	job *sched.Job
	rem float64
	typ int
}

// inlineSlots is how many slots a server holds inline: K of the SMT and
// quad machines. maxK is the largest K a perfdb table stores.
const (
	inlineSlots = 4
	maxK        = 8
)

// How a server picks its running jobs, fixed by its scheduler's concrete
// type.
const (
	byFCFS    = iota // the oldest K jobs run, no call
	bySummary        // an unwrapped MAXIT, SRPT or MAXTP decides from the server's summary
	bySelect         // any other scheduler is handed the queue
)

// learnScratch is what only a server whose decisions read other rates
// than its table touches: that rate source, the per-slot progress handed
// to its interval observer and the candidate coschedule of a learned-rate
// marginal probe. Behind one pointer, it spares every other server a
// rate source and two slice headers.
type learnScratch struct {
	rates    online.RateSource
	prog     []float64
	margCand workload.Coschedule
}

// scratch returns the learning scratch, allocating it at first use.
func (sv *Server) scratch() *learnScratch {
	if sv.learn == nil {
		sv.learn = new(learnScratch)
	}
	return sv.learn
}

// NewServer returns an empty server over the given table and scheduler:
// the one-server case of NewServers.
func NewServer(t *perfdb.Table, s sched.Scheduler) *Server {
	return &NewServers([]*perfdb.Table{t}, []sched.Scheduler{s})[0]
}

// NewServers returns len(tables) empty servers as one slab: server i runs
// scheds[i] over tables[i]. A scheduler must not be shared with another
// server (MAXTP and the online estimators carry per-run state).
//
// The servers' scratch comes out of run-level slabs too: each server's
// queue gets capacity 2K, carved with a full slice expression so that a
// queue outgrowing its share appends into fresh memory of its own
// instead of its neighbour's, and a server with more than four contexts
// gets its K slots from a slot slab. A fleet of any size thus costs at
// most four allocations (servers, queues, summaries, wide slots), and
// servers that run within their shares never grow them.
//
// How a server decides is fixed here, once, by its scheduler's concrete
// type. An unwrapped MAXIT, SRPT or MAXTP decides from a queue summary
// the server keeps up to date at every Add, Advance and Fail (the
// summaries are one more slab); an FCFS server runs its oldest jobs
// without a call; any other scheduler, wrappers included, is handed the
// queue through Select.
func NewServers(tables []*perfdb.Table, scheds []sched.Scheduler) []Server {
	queue, wide, summaries := 0, 0, 0
	for i, t := range tables {
		queue += 2 * t.K()
		if t.K() > inlineSlots {
			wide++
		}
		if sched.Summarizes(scheds[i]) {
			summaries++
		}
	}
	fleet := make([]Server, len(tables))
	jobs := make([]*sched.Job, queue)
	slots := make([][maxK]slot, wide)
	qs := make([]sched.Summary, summaries)
	for i, t := range tables {
		k := t.K()
		sv := &fleet[i]
		sv.table, sv.tableRates, sv.sched, sv.k = t, true, scheds[i], uint8(k)
		sv.ttc = math.Inf(1)
		sv.jobs, jobs = jobs[:0:2*k], jobs[2*k:]
		if k > inlineSlots {
			sv.wide, slots = &slots[0], slots[1:]
		}
		if o, ok := scheds[i].(sched.Observer); ok {
			sv.schedObs, sv.hooks = o, true
		}
		if _, ok := scheds[i].(*sched.FCFS); ok {
			sv.mode = byFCFS
		} else if sched.Summarizes(scheds[i]) {
			sv.mode = bySummary
			sv.q, qs = &qs[0], qs[1:]
			sv.q.Attach(scheds[i])
			_, sv.writeBack = scheds[i].(*sched.SRPT)
		} else {
			sv.mode, sv.writeBack = bySelect, true
		}
	}
	return fleet
}

// slots returns the occupied slots, in running order. While the server
// is stale they hold the jobs still running from before the last
// completion, for the next Reschedule to carry over.
func (sv *Server) slots() []slot {
	if sv.k > inlineSlots {
		return sv.wide[:sv.nslot]
	}
	return sv.inline[:sv.nslot]
}

// running returns the slots that progress: none while the server is
// idle or stale.
func (sv *Server) running() []slot {
	if sv.entry == nil {
		return nil
	}
	return sv.slots()
}

// Table returns the server's ground-truth performance table.
func (sv *Server) Table() *perfdb.Table { return sv.table }

// Scheduler returns the server's scheduler.
func (sv *Server) Scheduler() sched.Scheduler { return sv.sched }

// Rates returns the rate source decision-makers outside the server
// (symbiosis-aware dispatchers) should probe: the learned estimator when
// one is installed, the oracle table otherwise.
func (sv *Server) Rates() online.RateSource {
	if sv.learn != nil && sv.learn.rates != nil {
		return sv.learn.rates
	}
	return sv.table
}

// SetRates replaces the decision-rate source exposed by Rates. It does
// not change the physics: jobs still progress at the table's true rates.
func (sv *Server) SetRates(rs online.RateSource) {
	switch r := rs.(type) {
	case *perfdb.Table:
		sv.tableRates = r == sv.table
	case online.Oracle:
		sv.tableRates = r.Table == sv.table
	default:
		sv.tableRates = false
	}
	if rs == online.RateSource(sv.table) && sv.learn == nil {
		return
	}
	sv.scratch().rates = rs
}

// SetObserver installs the measurement hook fed by Advance. The observer
// must not retain the progress slice it is handed.
func (sv *Server) SetObserver(o online.IntervalObserver) {
	sv.obs = o
	sv.setHooks()
}

// setHooks records whether Advance has anything to report to.
func (sv *Server) setHooks() { sv.hooks = sv.met != nil || sv.obs != nil || sv.schedObs != nil }

// K returns the server's context count.
func (sv *Server) K() int { return int(sv.k) }

// JobsInSystem returns the number of jobs queued or running.
func (sv *Server) JobsInSystem() int { return len(sv.jobs) }

// Dispatched returns how many jobs have been added over the server's
// lifetime.
func (sv *Server) Dispatched() int { return sv.dispatched }

// Running returns the canonical coschedule currently occupying the
// contexts (empty when idle, stale or not yet rescheduled): the running
// table entry's own coschedule, which the caller must not mutate. The
// makespan loop counts its idle contexts with it.
func (sv *Server) Running() workload.Coschedule {
	if sv.entry == nil {
		return nil
	}
	return sv.entry.Cos
}

// MarginalInstTP returns the decision-rate gain of routing one job of
// type b here: Rates().InstTP of the running coschedule plus the job,
// minus Rates().InstTP of the running coschedule alone (for an idle
// server, just the job's solo score). It is the score symbiosis-aware
// dispatchers (farm's li and pd families) maximise. When the decision
// rates are the server's own table, directly or through online.Oracle,
// the table's precomputed marginal row answers — the same two stored
// values and the same subtraction, so the same bits. Any other source is
// probed twice through per-server scratch. Either way a probe is
// allocation-free. A full server has no marginal row and must not be
// probed.
func (sv *Server) MarginalInstTP(b int) float64 {
	if sv.tableRates {
		if sv.hooks && sv.met != nil {
			sv.met.MargHit.Inc()
		}
		if sv.entry == nil {
			return sv.table.IdleMarginal()[b]
		}
		return sv.entry.Marginal()[b]
	}
	if sv.met != nil {
		sv.met.MargMiss.Inc()
	}
	// The running coschedule is sorted; inserting b keeps it canonical.
	canon := sv.Running()
	ls := sv.scratch()
	cand := append(append(ls.margCand[:0], canon...), b)
	for i := len(cand) - 1; i > 0 && cand[i-1] > b; i-- {
		cand[i], cand[i-1] = cand[i-1], cand[i]
	}
	ls.margCand = cand
	gain := ls.rates.InstTP(cand)
	if len(canon) > 0 {
		gain -= ls.rates.InstTP(canon)
	}
	return gain
}

// Add enqueues a job. The server must be rescheduled before the next
// TimeToNextCompletion/Advance. Jobs must be added in nondecreasing ID
// order — the arrival-order invariant the schedulers rely on.
func (sv *Server) Add(j *sched.Job) {
	sv.jobs = append(sv.jobs, j)
	if sv.mode == bySummary {
		sv.q.Add(j)
	}
	sv.dispatched++
}

// Reschedule re-runs the scheduler over the current job set, fixing the
// running slots and their table entry until the next event. The slots
// whose occupants the new selection keeps in the same order keep their
// work; past the first slot that changed, every old occupant writes its
// work back to its job and every selected job takes its work from its
// job, so a job that kept its context but moved to another slot holds
// the same value either way. An FCFS server, whose running jobs are
// always the queue's oldest, only ever appends new jobs. Reschedule is
// a no-op on an empty server and errors when the scheduler selects an
// invalid set.
func (sv *Server) Reschedule() error {
	if sv.hooks && sv.met != nil {
		sv.met.Reschedules.Inc()
	}
	if len(sv.jobs) == 0 {
		sv.nslot, sv.entry, sv.ttc = 0, nil, math.Inf(1)
		return nil
	}
	k := int(sv.k)
	var next []*sched.Job
	var idx []int
	switch sv.mode {
	case byFCFS:
		next = sv.jobs[:min(k, len(sv.jobs))]
	case bySummary:
		next = sv.q.Select(k)
	default:
		idx = sv.sched.Select(sv.jobs, k)
	}
	n := len(next) + len(idx)
	if n == 0 || n > k {
		return fmt.Errorf("eventsim: scheduler %s selected %d jobs (k=%d, system=%d)",
			sv.sched.Name(), n, k, len(sv.jobs))
	}
	if idx != nil {
		var picked [maxK]*sched.Job
		for i, ji := range idx {
			picked[i] = sv.jobs[ji]
		}
		next = picked[:n]
	}
	// The jobs that kept their slots in order need nothing; a selection
	// that changed nothing keeps its entry and its completion time too.
	old := sv.slots()
	i := 0
	for i < n && i < len(old) && old[i].job == next[i] {
		i++
	}
	if i == n && n == len(old) && sv.entry != nil {
		return nil
	}
	for _, j := range next[i:] {
		if j.Type < 0 || j.Type >= len(sv.table.Suite()) {
			return fmt.Errorf("eventsim: job %d of type %d outside the table's %d types", j.ID, j.Type, len(sv.table.Suite()))
		}
	}
	for _, s := range old[i:] {
		s.job.Remaining = s.rem
	}
	sv.nslot = uint8(n)
	cur := sv.slots()
	for ; i < n; i++ {
		j := next[i]
		cur[i] = slot{job: j, rem: j.Remaining, typ: j.Type}
	}
	// The canonical coschedule, sorted by insertion, folded to its rank.
	var canon [maxK]int
	for i, s := range cur {
		c := i
		for ; c > 0 && canon[c-1] > s.typ; c-- {
			canon[c] = canon[c-1]
		}
		canon[c] = s.typ
	}
	r := 0
	for i, b := range canon[:n] {
		r = sv.table.RankAppend(r, i, b)
	}
	sv.entry = sv.table.EntryByRank(r)
	wipc := sv.entry.TypeWIPCs()
	dt := math.Inf(1)
	for _, s := range cur {
		if d := s.rem / wipc[s.typ]; d < dt {
			dt = d
		}
	}
	sv.ttc = dt
	return nil
}

// TimeToNextCompletion returns the time until the first running job
// completes at the current (true) rates, or +Inf for an idle or stale
// server. The value is maintained by Reschedule and Advance; reading it
// is O(1).
func (sv *Server) TimeToNextCompletion() float64 { return sv.ttc }

// Advance progresses the running jobs by dt at their true per-coschedule
// rates, accumulates the busy/empty/work integrals, reports the interval
// to the installed observer and the scheduler, and removes the jobs that
// completed — the running jobs left with at most the completion epsilon
// of work — appending them to done in queue order. A waiting job never
// completes, however little work it holds. It returns the extended
// buffer. When jobs complete the server must be rescheduled before the
// next event.
func (sv *Server) Advance(dt float64, done []*sched.Job) []*sched.Job {
	run := sv.running()
	if sv.hooks && sv.met != nil {
		sv.met.advance(len(sv.jobs), len(run), dt)
	}
	if sv.failed {
		sv.down.Add(dt)
		return done
	}
	if len(sv.jobs) == 0 {
		sv.empty.Add(dt)
		return done
	}
	sv.busy.Add(float64(len(run)) * dt)
	next := math.Inf(1)
	finished := false
	if len(run) > 0 {
		wipc := sv.entry.TypeWIPCs()
		for i := range run {
			rate := wipc[run[i].typ]
			adv := rate * dt
			rem := run[i].rem - adv
			run[i].rem = rem
			sv.work.Add(adv)
			if d := rem / rate; d < next {
				next = d
			}
			if rem <= eps {
				finished = true
			}
		}
	}
	sv.ttc = next
	if sv.hooks {
		sv.report(dt)
	}
	if sv.writeBack {
		for _, s := range run {
			s.job.Remaining = s.rem
		}
	}
	if sv.mode == bySummary {
		sv.q.Progress()
	}
	if finished {
		done = sv.complete(done)
	}
	return done
}

// report hands the interval just advanced to the installed observers:
// the interval observer gets the per-slot progress, the scheduler the
// time its coschedule ran.
func (sv *Server) report(dt float64) {
	cos := sv.Running()
	if sv.obs != nil && dt > 0 && len(cos) > 0 {
		wipc := sv.entry.TypeWIPCs()
		ls := sv.scratch()
		ls.prog = ls.prog[:0]
		for _, typ := range cos {
			ls.prog = append(ls.prog, wipc[typ]*dt)
		}
		sv.obs.ObserveInterval(cos, dt, ls.prog)
	}
	if sv.schedObs != nil {
		sv.schedObs.Observe(cos, dt)
	}
}

// complete moves the finished jobs out of their slots and the queue,
// appending them to done in queue order, which is ID order, and returns
// done. The surviving slots keep their work for the next Reschedule;
// the server is stale until then.
func (sv *Server) complete(done []*sched.Job) []*sched.Job {
	start := len(done)
	run := sv.slots()
	keep := 0
	for i := range run {
		if run[i].rem <= eps {
			run[i].job.Remaining = run[i].rem
			done = append(done, run[i].job)
		} else {
			run[keep] = run[i]
			keep++
		}
	}
	sv.nslot, sv.entry, sv.ttc = uint8(keep), nil, math.Inf(1)
	fin := done[start:]
	if sv.mode == bySummary {
		sv.q.Remove(fin)
	}
	for i := 1; i < len(fin); i++ {
		for j := i; j > 0 && fin[j-1].ID > fin[j].ID; j-- {
			fin[j-1], fin[j] = fin[j], fin[j-1]
		}
	}
	jobs := sv.jobs
	for _, j := range fin {
		i := slices.Index(jobs, j)
		copy(jobs[i:], jobs[i+1:])
		jobs[len(jobs)-1] = nil // no stale pointer to a job the stream may recycle
		jobs = jobs[:len(jobs)-1]
	}
	sv.jobs = jobs
	return done
}

// Up reports whether the server is in service. A failed server holds no
// jobs, completes nothing, and accumulates down time until Repair.
func (sv *Server) Up() bool { return !sv.failed }

// Fail crashes the server: every queued and running job is evicted and
// appended to victims in queue order for the caller's re-dispatch
// policy, and the server leaves service (Advance accumulates down time,
// completes nothing). It returns the extended buffer. Jobs keep whatever
// Remaining they had at the crash — the running ones their slots' work;
// the caller applies the checkpoint policy.
func (sv *Server) Fail(victims []*sched.Job) []*sched.Job {
	sv.failed = true
	for _, s := range sv.slots() {
		s.job.Remaining = s.rem
	}
	sv.nslot, sv.entry, sv.ttc = 0, nil, math.Inf(1)
	victims = append(victims, sv.jobs...)
	clear(sv.jobs) // no stale pointer to a job the stream may recycle
	sv.jobs = sv.jobs[:0]
	if sv.mode == bySummary {
		sv.q.Clear()
	}
	return victims
}

// Repair returns a failed server to service, empty. The caller is
// responsible for bumping the rate source's epoch if its knowledge may
// have gone stale across the outage.
func (sv *Server) Repair() { sv.failed = false }

// DownTime returns the total time the server spent failed.
func (sv *Server) DownTime() float64 { return sv.down.Value() }

// BusyTime returns the integral of the number of busy contexts over time.
func (sv *Server) BusyTime() float64 { return sv.busy.Value() }

// EmptyTime returns the total time the server had zero jobs in system.
func (sv *Server) EmptyTime() float64 { return sv.empty.Value() }

// WorkDone returns the total completed work in WIPC time units.
func (sv *Server) WorkDone() float64 { return sv.work.Value() }
