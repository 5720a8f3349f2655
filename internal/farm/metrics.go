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
// Each server gets its own collector, touched only when the engine steps
// that server; the dispatch collector is touched only by the engine's
// coordinator. The merged snapshot folds dispatch first, then the
// servers in index order — the same index-ordered reduction that keeps
// Results byte-identical.
type runMetrics struct {
	serverCols []*metrics.Collector
	dispatch   *metrics.Collector
	picks      *metrics.Counter
	qlen       *metrics.Series

	// Fault-injection instruments, on the dispatch collector (fault
	// transitions and re-dispatch both run in the coordinator). All stay
	// zero when faults are disabled.
	crashes      *metrics.Counter // fault_crashes: server failures
	repairs      *metrics.Counter // fault_repairs: servers brought back up
	redispatches *metrics.Counter // fault_redispatches: crash victims placed again
	parks        *metrics.Counter // fault_parked: jobs shelved with every server down
}

// newRunMetrics instruments a freshly built fleet: per-server collectors
// carrying the server, scheduler and (when learning) estimator
// instruments, plus the dispatch-side picks counter and the
// jobs-in-system series sampled at every arrival.
func newRunMetrics(servers []*eventsim.Server) *runMetrics {
	rm := &runMetrics{dispatch: metrics.New()}
	rm.picks = rm.dispatch.Counter("dispatch_picks")
	rm.qlen = rm.dispatch.Series("farm_jobs_in_system", 256)
	rm.crashes = rm.dispatch.Counter("fault_crashes")
	rm.repairs = rm.dispatch.Counter("fault_repairs")
	rm.redispatches = rm.dispatch.Counter("fault_redispatches")
	rm.parks = rm.dispatch.Counter("fault_parked")
	for _, sv := range servers {
		c := metrics.New()
		sv.SetMetrics(eventsim.NewServerMetrics(c))
		sched.AttachMetrics(sv.Scheduler(), sched.NewMetrics(c))
		online.AttachMetrics(sv.Rates(), online.NewMetrics(c))
		rm.serverCols = append(rm.serverCols, c)
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

// snapshot merges the run's deterministic instruments: dispatch first,
// then every server in index order.
func (rm *runMetrics) snapshot() *metrics.Snapshot {
	snap := rm.dispatch.Snapshot()
	for _, c := range rm.serverCols {
		snap.Merge(c.Snapshot())
	}
	return snap
}

// finish attaches the run's snapshot to the assembled result.
func (rm *runMetrics) finish(res *Result) {
	if rm != nil {
		res.Metrics = rm.snapshot()
	}
}
