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
// package drive one Server, and internal/farm multiplexes many Servers on
// a shared clock.
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
//  3. Advance every server by dt; completed jobs are returned.
//
// A Server accumulates its own busy/empty/work integrals so per-server
// utilisation survives multiplexing.
//
// The stepping path is allocation-free at steady state: the canonical
// coschedule, the table entry it resolves to (one uint64-keyed probe per
// reschedule), the completion buffer and the time-to-next-completion are
// all held in per-server scratch, and the running jobs' rates are read
// from the entry, which every server running that coschedule shares.
// Reschedule resolves the entry and the time to the next completion;
// Advance folds the refresh of that time into its progress loop —
// dividing the same decremented remaining work by the same rate, in the
// same job order, that a fresh scan would use, so the cached value is
// bit-identical to recomputation.
type Server struct {
	// Hot fields first: a dispatch probe of a random server and a
	// stepping call read these, and sharing one or two cache lines keeps
	// a large farm's per-job misses down.
	failed     bool
	tableRates bool                // rates is table itself or online.Oracle over it
	jobs       []*sched.Job        // queue in arrival (ID) order
	entry      *perfdb.Entry       // table entry of canon; nil when idle or stale
	table      *perfdb.Table       // ground-truth rates
	met        *ServerMetrics      // nil: uninstrumented
	running    []int               // indices into jobs, valid after Reschedule
	ttc        float64             // cached time to next completion (+Inf when idle/stale)
	canon      workload.Coschedule // canonical coschedule scratch of the running jobs

	// Warm: the rest of what Add, Reschedule and Advance touch.
	sched             sched.Scheduler
	schedObs          sched.Observer // sched, when it observes time; else nil
	obs               online.IntervalObserver
	busy, empty, work numeric.KahanSum
	dispatched        int
	done              []*sched.Job // completion scratch returned by Advance

	rates    online.RateSource
	prog     []float64           // scratch per-slot progress for the observer
	margCand workload.Coschedule // candidate scratch for learned-rate probes
	down     numeric.KahanSum    // time spent failed (neither busy nor empty)
}

// NewServer returns an empty server over the given table and scheduler.
// The scheduler must not be shared with another server (MAXTP and the
// online estimators carry per-run state).
func NewServer(t *perfdb.Table, s sched.Scheduler) *Server {
	sv := &Server{table: t, rates: t, tableRates: true, sched: s, ttc: math.Inf(1)}
	if o, ok := s.(sched.Observer); ok {
		sv.schedObs = o
	}
	return sv
}

// Table returns the server's ground-truth performance table.
func (sv *Server) Table() *perfdb.Table { return sv.table }

// Scheduler returns the server's scheduler.
func (sv *Server) Scheduler() sched.Scheduler { return sv.sched }

// Rates returns the rate source decision-makers outside the server
// (symbiosis-aware dispatchers) should probe: the learned estimator when
// one is installed, the oracle table otherwise.
func (sv *Server) Rates() online.RateSource { return sv.rates }

// SetRates replaces the decision-rate source exposed by Rates. It does
// not change the physics: jobs still progress at the table's true rates.
func (sv *Server) SetRates(rs online.RateSource) {
	sv.rates = rs
	switch r := rs.(type) {
	case *perfdb.Table:
		sv.tableRates = r == sv.table
	case online.Oracle:
		sv.tableRates = r.Table == sv.table
	default:
		sv.tableRates = false
	}
}

// SetObserver installs the measurement hook fed by Advance. The observer
// must not retain the progress slice it is handed.
func (sv *Server) SetObserver(o online.IntervalObserver) { sv.obs = o }

// K returns the server's context count.
func (sv *Server) K() int { return sv.table.K() }

// JobsInSystem returns the number of jobs queued or running.
func (sv *Server) JobsInSystem() int { return len(sv.jobs) }

// Dispatched returns how many jobs have been added over the server's
// lifetime.
func (sv *Server) Dispatched() int { return sv.dispatched }

// Running returns the canonical coschedule currently occupying the
// contexts (empty when idle or not yet rescheduled). The slice is
// per-server scratch, valid only until the next Reschedule; the caller
// must not mutate or retain it. Symbiosis-aware dispatchers probe it
// against the table.
func (sv *Server) Running() workload.Coschedule { return sv.canon }

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
		if sv.met != nil {
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
	// canon is sorted; inserting b keeps it canonical.
	sv.margCand = append(sv.margCand[:0], sv.canon...)
	sv.margCand = append(sv.margCand, b)
	for i := len(sv.margCand) - 1; i > 0 && sv.margCand[i-1] > b; i-- {
		sv.margCand[i], sv.margCand[i-1] = sv.margCand[i-1], sv.margCand[i]
	}
	gain := sv.rates.InstTP(sv.margCand)
	if len(sv.canon) > 0 {
		gain -= sv.rates.InstTP(sv.canon)
	}
	return gain
}

// Add enqueues a job. The server must be rescheduled before the next
// TimeToNextCompletion/Advance. Jobs must be added in nondecreasing ID
// order — the arrival-order invariant the schedulers rely on.
func (sv *Server) Add(j *sched.Job) {
	sv.jobs = append(sv.jobs, j)
	sv.dispatched++
}

// Reschedule re-runs the scheduler over the current job set, fixing the
// running coschedule, its per-slot rates and the time to the next
// completion until the next event. It is a no-op on an empty server and
// errors when the scheduler selects an invalid set.
func (sv *Server) Reschedule() error {
	if sv.met != nil {
		sv.met.Reschedules.Inc()
	}
	if len(sv.jobs) == 0 {
		sv.clearRunning()
		return nil
	}
	running := sv.sched.Select(sv.jobs, sv.table.K())
	if len(running) == 0 || len(running) > sv.table.K() {
		return fmt.Errorf("eventsim: scheduler %s selected %d jobs (k=%d, system=%d)",
			sv.sched.Name(), len(running), sv.table.K(), len(sv.jobs))
	}
	sv.running = running
	sv.canon = sv.canon[:0]
	for _, ji := range running {
		sv.canon = append(sv.canon, sv.jobs[ji].Type)
	}
	slices.Sort(sv.canon)
	// One keyed probe resolves every rate for the interval.
	sv.entry = sv.table.EntryByKey(perfdb.Key(sv.canon))
	wipc := sv.entry.TypeWIPCs()
	dt := math.Inf(1)
	for _, ji := range running {
		j := sv.jobs[ji]
		if d := j.Remaining / wipc[j.Type]; d < dt {
			dt = d
		}
	}
	sv.ttc = dt
	return nil
}

// TimeToNextCompletion returns the time until the first running job
// completes at the current (true) rates, or +Inf for an idle server. The
// value is maintained by Reschedule and Advance; reading it is O(1).
func (sv *Server) TimeToNextCompletion() float64 { return sv.ttc }

// Advance progresses the running jobs by dt at their true per-coschedule
// rates, accumulates the busy/empty/work integrals, reports the interval
// to the installed observer and the scheduler, and removes and returns
// the jobs that completed (in queue order). The returned slice is
// per-server scratch, valid until the next Advance. When jobs complete
// the server must be rescheduled before the next event.
func (sv *Server) Advance(dt float64) []*sched.Job {
	if sv.met != nil {
		sv.met.advance(len(sv.jobs), len(sv.running), dt)
	}
	if sv.failed {
		sv.down.Add(dt)
		return nil
	}
	if len(sv.jobs) == 0 {
		sv.empty.Add(dt)
		return nil
	}
	sv.busy.Add(float64(len(sv.running)) * dt)
	next := math.Inf(1)
	for _, ji := range sv.running {
		j := sv.jobs[ji]
		rate := sv.entry.TypeWIPCs()[j.Type]
		adv := rate * dt
		j.Remaining -= adv
		sv.work.Add(adv)
		if d := j.Remaining / rate; d < next {
			next = d
		}
	}
	sv.ttc = next
	if sv.obs != nil && dt > 0 && len(sv.canon) > 0 {
		wipc := sv.entry.TypeWIPCs()
		sv.prog = sv.prog[:0]
		for _, typ := range sv.canon {
			sv.prog = append(sv.prog, wipc[typ]*dt)
		}
		sv.obs.ObserveInterval(sv.canon, dt, sv.prog)
	}
	if sv.schedObs != nil {
		sv.schedObs.Observe(sv.canon, dt)
	}
	sv.done = sv.done[:0]
	kept := 0
	for _, j := range sv.jobs {
		if j.Remaining > eps {
			sv.jobs[kept] = j
			kept++
			continue
		}
		sv.done = append(sv.done, j)
	}
	if len(sv.done) > 0 {
		for i := kept; i < len(sv.jobs); i++ {
			sv.jobs[i] = nil // release completed jobs to the GC
		}
		sv.jobs = sv.jobs[:kept]
		sv.clearRunning() // stale until the next Reschedule
	}
	return sv.done
}

// clearRunning forgets the running coschedule: the server is idle, or
// stale until its next Reschedule.
func (sv *Server) clearRunning() {
	sv.running, sv.canon, sv.entry = nil, sv.canon[:0], nil
	sv.ttc = math.Inf(1)
}

// Up reports whether the server is in service. A failed server holds no
// jobs, completes nothing, and accumulates down time until Repair.
func (sv *Server) Up() bool { return !sv.failed }

// Fail crashes the server: every queued and running job is evicted and
// returned in queue order for the caller's re-dispatch policy, and the
// server leaves service (Advance accumulates down time, completes
// nothing). The returned slice is the server's completion scratch,
// valid until the next Advance or Fail — callers must consume it
// synchronously. Jobs keep whatever Remaining they had at the crash;
// the caller applies the checkpoint policy.
func (sv *Server) Fail() []*sched.Job {
	sv.failed = true
	sv.done = append(sv.done[:0], sv.jobs...)
	for i := range sv.jobs {
		sv.jobs[i] = nil // release the evicted jobs to the GC
	}
	sv.jobs = sv.jobs[:0]
	sv.clearRunning()
	return sv.done
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
