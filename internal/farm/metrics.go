package farm

import (
	"symbiosched/internal/eventsim"
	"symbiosched/internal/metrics"
	"symbiosched/internal/online"
	"symbiosched/internal/sched"
)

// runMetrics is one simulation's instrumentation bundle, built when
// Config.Metrics is set. A nil *runMetrics is the disabled state: every
// hook method is a nil-receiver no-op, so the engine stays on its
// uninstrumented path.
//
// The run has one collector. Every server shares one server, one
// scheduler and one estimator instrument set on it, next to the dispatch
// and fault instruments. The engine steps the whole fleet on one
// goroutine in its deterministic (time, server index) event order, so
// the shared instruments add the same terms in the same order on every
// execution, and the snapshot is a function of the run's inputs.
type runMetrics struct {
	col   *metrics.Collector
	picks *metrics.Counter
	qlen  *metrics.Series

	// Fault-injection instruments. All stay zero when faults are
	// disabled.
	crashes      *metrics.Counter // fault_crashes: server failures
	repairs      *metrics.Counter // fault_repairs: servers brought back up
	redispatches *metrics.Counter // fault_redispatches: crash victims placed again
	parks        *metrics.Counter // fault_parked: jobs shelved with every server down
}

// newRunMetrics instruments a freshly built fleet: one collector carrying
// the dispatch-side picks counter, the jobs-in-system series sampled at
// every arrival and the fault counters, plus the server, scheduler and
// (when learning) estimator instrument sets every server shares.
func newRunMetrics(servers []*eventsim.Server) *runMetrics {
	c := metrics.New()
	rm := &runMetrics{
		col:          c,
		picks:        c.Counter("dispatch_picks"),
		qlen:         c.Series("farm_jobs_in_system", 256),
		crashes:      c.Counter("fault_crashes"),
		repairs:      c.Counter("fault_repairs"),
		redispatches: c.Counter("fault_redispatches"),
		parks:        c.Counter("fault_parked"),
	}
	sm, scm, om := eventsim.NewServerMetrics(c), sched.NewMetrics(c), online.NewMetrics(c)
	for _, sv := range servers {
		sv.SetMetrics(sm)
		sched.AttachMetrics(sv.Scheduler(), scm)
		online.AttachMetrics(sv.Rates(), om)
	}
	return rm
}

// pick records one dispatch decision: the pick itself and the farm
// population (dispatched minus completed, i.e. jobs in system including
// the new arrival) at the arrival's time.
func (rm *runMetrics) pick(t float64, inSystem int) {
	if rm != nil {
		rm.picks.Inc()
		rm.qlen.Append(t, float64(inSystem))
	}
}

// crash counts one server failure.
func (rm *runMetrics) crash() {
	if rm != nil {
		rm.crashes.Inc()
	}
}

// repair counts one server repair.
func (rm *runMetrics) repair() {
	if rm != nil {
		rm.repairs.Inc()
	}
}

// redispatch counts one crash victim placed again.
func (rm *runMetrics) redispatch() {
	if rm != nil {
		rm.redispatches.Inc()
	}
}

// park counts one job shelved because every server was down.
func (rm *runMetrics) park() {
	if rm != nil {
		rm.parks.Inc()
	}
}

// finish attaches the run's snapshot to the assembled result.
func (rm *runMetrics) finish(res *Result) {
	if rm != nil {
		res.Metrics = rm.col.Snapshot()
	}
}
