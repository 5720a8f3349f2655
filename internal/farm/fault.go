package farm

import (
	"symbiosched/internal/eventsim"
	"symbiosched/internal/fault"
	"symbiosched/internal/numeric"
	"symbiosched/internal/sched"
)

// Meta-event kinds of the engines' event selection: at most one fires
// per loop iteration, and equal-time ties resolve in declaration order
// — fault transitions first (a crash at an arrival's instant evicts
// before the arrival is placed; a repair re-opens the server to a
// same-instant retry), then retry re-arrivals, then fresh arrivals.
// Completions are not meta events: both engines process every
// completion up to the meta event's time before handling it.
const (
	evNone = iota
	evFault
	evRetry
	evArrival
)

// faultRun is one simulation's fault-injection state, shared verbatim
// by the serial and sharded engines so the two apply byte-identical
// policy to the same fault trajectory. A nil *faultRun is the disabled
// state: the engines' fault hooks vanish and their event selection
// reduces exactly to the historical completion-vs-arrival race.
type faultRun struct {
	cfg  fault.Config // with defaults applied
	inj  *fault.Injector
	rq   *fault.RetryQueue
	jobs *eventsim.JobStream // takes back the jobs dropped past the retry cap
	// parked holds jobs that arrived (or retried) while every server was
	// down, in arrival order; the next repair drains it FIFO through the
	// normal dispatch path.
	parked []*sched.Job
	// up is the number of in-service servers, maintained O(1) at every
	// transition and handed to Dispatcher.Pick.
	up int
	// seq re-issues dispatch-order job IDs: with re-dispatch in play, a
	// retried job would otherwise re-enter a queue behind younger IDs and
	// break the schedulers' nondecreasing-ID arrival invariant. Every
	// placement (fresh, retry or park-drain) takes the next seq, which
	// reduces to the identity relabelling when faults are off.
	seq int

	redispatches int
	dropped      int
	parkedTotal  int
	wasted       numeric.KahanSum
	retries      []float64 // per counted completion: the job's crash count
}

// newFaultRun builds the run state for cfg's fault config over n
// servers fed by the job stream jobs, or nil when fault injection is
// disabled.
func newFaultRun(cfg Config, n int, jobs *eventsim.JobStream) *faultRun {
	if !cfg.Faults.Enabled() {
		return nil
	}
	fc := cfg.Faults.WithDefaults()
	expected := cfg.Jobs - cfg.Warmup
	if expected < 0 {
		expected = 0
	}
	return &faultRun{
		cfg:     fc,
		inj:     fault.NewInjector(fc, n, cfg.Seed),
		rq:      &fault.RetryQueue{},
		jobs:    jobs,
		up:      n,
		retries: make([]float64, 0, expected),
	}
}

// droppedJobs is fr.dropped, nil-safe: the engines' termination
// condition counts completed + dropped against cfg.Jobs.
func (fr *faultRun) droppedJobs() int {
	if fr == nil {
		return 0
	}
	return fr.dropped
}

// crash applies the checkpoint and retry policy to the victims of a
// server failure at time t: under restart each victim forfeits its
// progress as wasted work; a victim past the retry cap is dropped (its
// surviving progress also wasted); the rest re-enter the farm through
// the retry queue after the deterministic backoff. Victims are
// processed in the queue order the failed server held them. A dropped
// job is recycled into the job stream once accounted for.
func (fr *faultRun) crash(t float64, victims []*sched.Job, rm *runMetrics) {
	fr.up--
	rm.crash()
	for _, j := range victims {
		if fr.cfg.Checkpoint == fault.Restart {
			fr.wasted.Add(j.Size - j.Remaining)
			j.Remaining = j.Size
		}
		j.Retries++
		if j.Retries > fr.cfg.MaxRetries {
			// Dropped: whatever progress survived the checkpoint policy
			// (all of it under resume) is wasted too.
			fr.wasted.Add(j.Size - j.Remaining)
			fr.dropped++
			fr.jobs.Recycle(j)
			continue
		}
		fr.rq.Push(j, t+fr.cfg.Backoff(j.Retries))
	}
}

// park shelves a job that found every server down; the next repair
// drains the shelf FIFO.
func (fr *faultRun) park(j *sched.Job, rm *runMetrics) {
	fr.parked = append(fr.parked, j)
	fr.parkedTotal++
	rm.park()
}
