package farm

import (
	"fmt"
	"math"

	"symbiosched/internal/eventsim"
	"symbiosched/internal/numeric"
	"symbiosched/internal/online"
	"symbiosched/internal/sched"
	"symbiosched/internal/stats"
	"symbiosched/internal/workload"
)

// ShardConfig is kept so that callers written against SimulateSharded's
// signature still compile. The engine steps one event heap over the
// whole fleet (DESIGN.md, "One event heap"), so no field changes
// anything.
type ShardConfig struct {
	// Shards is ignored.
	Shards int
}

// SimulateSharded runs one farm experiment: Poisson arrivals at
// cfg.Lambda over workload w, routed by d over fresh servers built from
// specs. It is the farm's only event engine; the ShardConfig is ignored.
// The fleet is one eventsim.Group: each server keeps a lazy local clock
// and advances only at its own events, and one heap orders the fleet's
// completions.
// Between meta events — arrivals, retry re-arrivals and fault
// transitions — the group pops completions in (time, server index)
// order and hands each to the engine's fold, so every dispatch decision
// happens at its exact time with every completion up to it already
// applied. An event costs O(log N) instead of a lockstep loop's O(N)
// advance sweep, which is what makes 100k-server farms feasible, and the
// steady-state loop allocates nothing.
//
// One more rule makes learned servers see what a lockstep clock would
// show them (DESIGN.md, "One farm engine"): before every placement —
// fresh arrival, retry re-arrival or park drain — each server whose spec
// has an Estimator is settled to the placement instant, in server index
// order, so the dispatcher probes learners that have measured every
// interval up to now. Oracle servers are never touched: their state is
// constant between their own events. The rule costs O(learned servers)
// per placement, and results agree with a lockstep loop to float
// rounding (pinned by test against a reference loop).
func SimulateSharded(specs []ServerSpec, d Dispatcher, w workload.Workload, cfg Config, _ ShardConfig) (*Result, error) {
	if err := validate(specs, w, cfg); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	fleet, servers, learned, totalContexts, err := buildServers(specs, w, cfg)
	if err != nil {
		return nil, err
	}
	var rm *runMetrics
	if cfg.Metrics {
		rm = newRunMetrics(servers)
	}
	g := eventsim.NewGroup(fleet)

	// Three independent streams, so every dispatcher sees the same
	// arrival process: arrivals (as eventsim.Latency), job types/sizes
	// (as eventsim's job stream), dispatch decisions.
	arng := stats.NewRNG(cfg.Seed)
	drng := stats.NewRNG(cfg.Seed ^ 0xd1b54a32d192ed03)
	jobs := eventsim.NewJobStream(w, eventsim.LatencyConfig{
		Lambda:    cfg.Lambda,
		Jobs:      cfg.Jobs,
		Warmup:    cfg.Warmup,
		JobSize:   cfg.JobSize,
		SizeShape: cfg.SizeShape,
		Seed:      cfg.Seed,
	})
	nextArrivalAfter := arrivalStream(cfg, arng)
	// now is the observable event clock: the time of the last folded
	// completion, dispatched arrival or fault transition. It becomes
	// Result.Elapsed.
	var now float64
	nextArrival := nextArrivalAfter(0)
	arrivalsLeft := cfg.Jobs
	dispatched := 0

	var turnaround, goodput numeric.KahanSum
	expected := cfg.Jobs - cfg.Warmup
	if expected < 0 {
		expected = 0
	}
	turnarounds := make([]float64, 0, expected)
	completed, counted := 0, 0
	fr := newFaultRun(cfg, len(servers), jobs)

	// fold counts one completion into the turnaround statistics and
	// recycles its job, which nothing reads afterwards. Callers must
	// deliver completions in global (time, server index) order.
	fold := func(c eventsim.Completion) {
		completed++
		goodput.Add(c.Job.Size)
		if completed > cfg.Warmup {
			tr := c.T - c.Job.Arrival
			turnaround.Add(tr)
			turnarounds = append(turnarounds, tr)
			counted++
			if fr != nil {
				fr.retries = append(fr.retries, float64(c.Job.Retries))
			}
		}
		jobs.Recycle(c.Job)
		if c.T > now {
			now = c.T
		}
	}

	// place routes one job — fresh arrival, retry re-arrival or park-drain
	// — at time t: the settle of the learned servers, the fault-run ID
	// relabelling and up-set count, the dispatch draw, the delivery, and
	// the fold of any completions within the settle and delivery epsilon
	// (still in global time order: every earlier completion is folded).
	place := func(t float64, j *sched.Job) error {
		// Bring every learner up to t before Pick probes it; completions
		// fold in server index order. The rule is why the learned fleet's
		// observations match a lockstep clock's.
		for _, i := range learned {
			done, err := g.Settle(t, i)
			if err != nil {
				return err
			}
			for _, c := range done {
				fold(c)
			}
		}
		up := len(servers)
		if fr != nil {
			// Re-issue the job's ID in dispatch order: a crash victim
			// re-entering a queue behind younger jobs would otherwise break
			// the schedulers' nondecreasing-ID arrival invariant. Without
			// faults no job is ever re-placed and this is the identity.
			j.ID = fr.seq
			fr.seq++
			if j.Retries > 0 {
				fr.redispatches++
				rm.redispatch()
			}
			up = fr.up
		}
		ti := d.Pick(j, servers, up, drng)
		if ti < 0 || ti >= len(servers) {
			return fmt.Errorf("farm: dispatcher %s picked server %d of %d", d.Name(), ti, len(servers))
		}
		done, err := g.Deliver(t, ti, j)
		if err != nil {
			return err
		}
		for _, c := range done {
			fold(c)
		}
		dispatched++
		rm.pick(t, dispatched-completed)
		return nil
	}

	for completed+fr.droppedJobs() < cfg.Jobs {
		// The next meta event: fault transition, retry re-arrival, fresh
		// arrival, equal-time ties in that priority order (strict < keeps
		// the first-tried kind).
		horizon := math.Inf(1)
		ev := evNone
		try := func(t float64, kind int) {
			if t < horizon {
				horizon, ev = t, kind
			}
		}
		if fr != nil {
			try(fr.inj.Next(), evFault)
			try(fr.rq.Next(), evRetry)
		}
		if arrivalsLeft > 0 {
			try(nextArrival, evArrival)
		}
		if ev == evNone && math.IsInf(g.NextEvent(), 1) {
			break // drained: nothing running, no events left
		}
		if err := g.AdvanceTo(horizon, fold); err != nil {
			return nil, err
		}
		if fr != nil && completed+fr.dropped >= cfg.Jobs {
			// The completions finished the run at the meta event's
			// instant: stop before handling it, so Elapsed and the fault
			// counters do not count an event past the run's last job.
			break
		}
		switch ev {
		case evFault:
			fe := fr.inj.Pop()
			if fe.T > now {
				now = fe.T // the transition is an observable event
			}
			if fe.Down {
				done, victims, err := g.Fail(fe.T, fe.Server)
				if err != nil {
					return nil, err
				}
				for _, c := range done {
					fold(c)
				}
				fr.crash(fe.T, victims, rm)
			} else {
				if err := g.Repair(fe.T, fe.Server); err != nil {
					return nil, err
				}
				fr.up++
				rm.repair()
				if b, ok := servers[fe.Server].Rates().(online.EpochBumper); ok {
					// The server was out of service: force decisions memoized
					// over its learner to be re-derived, not served stale.
					b.BumpEpoch()
				}
				// A server is back: drain the parked shelf FIFO through the
				// normal dispatch path at the repair's instant. The shelf
				// cannot grow meanwhile — place has no park path — so one
				// pass drains it.
				for k, j := range fr.parked {
					fr.parked[k] = nil
					if err := place(fe.T, j); err != nil {
						return nil, err
					}
				}
				fr.parked = fr.parked[:0]
			}
		case evRetry:
			if horizon > now {
				now = horizon
			}
			j := fr.rq.Pop()
			if fr.up == 0 {
				fr.park(j, rm)
			} else if err := place(horizon, j); err != nil {
				return nil, err
			}
		case evArrival:
			now = nextArrival
			j := jobs.Next(now)
			if fr != nil && fr.up == 0 {
				fr.park(j, rm)
			} else if err := place(now, j); err != nil {
				return nil, err
			}
			arrivalsLeft--
			if arrivalsLeft > 0 {
				nextArrival = nextArrivalAfter(now)
			}
		}
	}
	if now <= 0 {
		return nil, fmt.Errorf("farm: experiment completed no work")
	}
	// Close every server's busy/empty/down integral at the common end time.
	if err := g.SettleTo(now); err != nil {
		return nil, fmt.Errorf("farm: %w", err)
	}
	return assembleResult(d, servers, totalContexts, cfg, now, completed, counted, turnaround, goodput, turnarounds, fr, rm), nil
}
