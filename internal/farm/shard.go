package farm

import (
	"fmt"
	"math"
	"runtime"

	"symbiosched/internal/eventsim"
	"symbiosched/internal/numeric"
	"symbiosched/internal/online"
	"symbiosched/internal/sched"
	"symbiosched/internal/stats"
	"symbiosched/internal/workload"
)

// ShardConfig parameterises the farm engine's execution. Every field is a
// pure execution knob, and zero selects the engine default:
// SimulateSharded's Result is byte-identical for any combination of
// Shards, Workers and Slab — the engine's output depends only on (specs,
// dispatcher, workload, Config).
type ShardConfig struct {
	// Shards is the number of contiguous server partitions advanced
	// independently between synchronization points (default 8, clamped
	// to the server count).
	Shards int
	// Workers bounds the goroutines advancing shards within one slab
	// (default GOMAXPROCS). Workers <= 1 runs the slab phase inline.
	Workers int
	// Slab shapes the synchronization slabs in simulated time. A
	// positive finite value caps each slab's length; +Inf disables
	// capping, so slabs run arrival to arrival; 0 (and any negative
	// value) selects adaptive sizing, which steers the cap toward a
	// fixed events-per-slab budget estimated from the event stream
	// itself. Slab boundaries are execution artefacts — shorter slabs
	// only add synchronization points, never change results.
	Slab float64
}

func (sc ShardConfig) withDefaults(n int) ShardConfig {
	if sc.Shards <= 0 {
		sc.Shards = 8
	}
	if sc.Shards > n {
		sc.Shards = n
	}
	if sc.Workers <= 0 {
		sc.Workers = runtime.GOMAXPROCS(0)
	}
	if sc.Slab < 0 || math.IsNaN(sc.Slab) {
		sc.Slab = 0 // adaptive
	}
	return sc
}

// Adaptive slab sizing (ShardConfig.Slab == 0) steers the slab cap
// toward autoSlabTarget completions per slab, using an event-density
// estimate (completions per unit simulated time) accumulated from the
// deterministic event stream alone. The estimate never observes worker
// counts, shard counts or wall time, so the cap sequence — and with it
// every slab boundary — is a pure function of the simulation inputs;
// and since slab boundaries are unobservable, any cap sequence yields
// the byte-identical Result. autoSlabWindow bounds the accumulators:
// past that many events both are halved, an exponential window that
// tracks load shifts (bursts, troughs) instead of averaging them away.
const (
	autoSlabTarget = 1024.0
	autoSlabWindow = 8192.0
)

// SimulateSharded runs one farm experiment: Poisson arrivals at
// cfg.Lambda over workload w, routed by d over fresh servers built from
// specs. It is the farm's only event engine. The servers are partitioned
// into contiguous shards, each wrapped in an eventsim.Group with lazy
// per-server clocks, and the shards advance in parallel to a common
// horizon per time slab. A slab's horizon is the next meta event —
// arrival, retry re-arrival or fault transition — so every dispatch
// decision happens at its exact time with every completion up to it
// already applied, optionally capped by sc.Slab.
//
// Determinism does not come from lockstep advancement but from three
// ordering rules (see DESIGN.md, "Time-slab determinism"): each server
// advances only at its own events, so its float arithmetic is a function
// of its own event times; each shard processes completions in (time,
// server index) order; and the coordinator merges shard completion lists
// back into one global (time, server index) order before folding the
// turnaround statistics. The Result is therefore byte-identical at any
// Shards/Workers/Slab setting.
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
//
// Complexity per event is O(log n_shard) instead of a lockstep loop's
// O(N) advance sweep, which is what makes 100k-server farms feasible.
// The coordination layer is built not to get in that path's way: slabs
// are fed to a persistent worker pool through an epoch barrier (no
// per-slab goroutines), completions merge through a loser tree (O(log k)
// per completion), idle shards sit in a next-event heap instead of being
// scanned every slab, and the steady-state slab loop allocates nothing.
func SimulateSharded(specs []ServerSpec, d Dispatcher, w workload.Workload, cfg Config, sc ShardConfig) (*Result, error) {
	if err := validate(specs, w, cfg); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	servers, learned, totalContexts, err := buildServers(specs, w, cfg)
	if err != nil {
		return nil, err
	}
	sc = sc.withDefaults(len(servers))
	var rm *runMetrics
	if cfg.Metrics {
		rm = newRunMetrics(servers)
	}

	z := getShardScratch(sc.Shards, len(servers))
	defer z.release()

	// Contiguous near-equal partition; shardOf maps a global server index
	// to its shard, base to the shard's first global index.
	base, shardOf := z.base, z.shardOf
	for s := 0; s <= sc.Shards; s++ {
		base[s] = s * len(servers) / sc.Shards
	}
	groups := make([]*eventsim.Group, sc.Shards)
	for s := 0; s < sc.Shards; s++ {
		groups[s] = eventsim.NewGroup(servers[base[s]:base[s+1]])
		for i := base[s]; i < base[s+1]; i++ {
			shardOf[i] = s
		}
	}
	// sh tracks each shard's next pending event time — the dirty-set
	// replacing a per-slab scan over every group. Its keys are refreshed
	// at exactly the points a group's state can change: slab advances,
	// deliveries, failures and repairs.
	sh := z.events

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
	// completion or dispatched arrival. It becomes Result.Elapsed, so it
	// must never touch a slab boundary (a pure execution artefact) —
	// frontier tracks those separately.
	var now, frontier float64
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
	// relabelling and up-set count, the dispatch draw, delivery into the
	// destination shard, and the fold of any completions within the
	// settle and delivery epsilon (still in global time order: the slab's
	// merge already ran).
	place := func(t float64, j *sched.Job) error {
		// Bring every learner up to t before Pick probes it; completions
		// fold in server index order. The rule is why the learned fleet's
		// observations match a lockstep clock's.
		for _, i := range learned {
			s := shardOf[i]
			done, err := groups[s].Settle(t, i-base[s])
			if err != nil {
				return err
			}
			for _, c := range done {
				fold(c)
			}
			sh.Update(s, groups[s].NextEvent())
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
		s := shardOf[ti]
		done, err := groups[s].Deliver(t, ti-base[s], j)
		if err != nil {
			return err
		}
		for _, c := range done {
			fold(c)
		}
		sh.Update(s, groups[s].NextEvent())
		dispatched++
		rm.pick(t, dispatched-completed)
		return nil
	}

	// Per-slab scratch: the active shard list, each active shard's
	// completion list (group-owned scratch, consumed before the next call
	// into that group) and its error slot.
	active := z.active
	comps, errs := z.comps, z.errs

	// The slab phase runs on a persistent pool: Workers-1 helpers spawned
	// once, fed through an epoch barrier, claiming shards off a shared
	// cursor. Thin slabs (fewer active shards than poolMinShards — every
	// active shard carries at least one event, so the active count lower-
	// bounds the slab's work) skip the barrier and run inline; an
	// arrival-bound farm in flow balance spends almost all slabs there,
	// and waking helpers for one completion costs more than the advance.
	var slabHorizon float64
	runOne := func(s int) {
		comps[s], errs[s] = groups[s].AdvanceTo(slabHorizon)
	}
	// Workers is clamped to GOMAXPROCS: helpers beyond the runtime's
	// parallelism can never advance shards concurrently, they only add
	// wake-ups — the overhead that used to make workers=8 slower than
	// workers=1 on a single-core host. The clamp is an execution detail;
	// the Result is identical either way.
	var pool *slabPool
	if workers := min(sc.Workers, sc.Shards, runtime.GOMAXPROCS(0)); workers > 1 && sc.Shards >= poolMinShards {
		pool = newSlabPool(workers, runOne)
		defer pool.close()
	}

	// runSlab advances every active shard to the horizon and merges the
	// shard completion lists back into one global (time, server index)
	// stream through the loser tree. Shards are data-independent within a
	// slab, so execution order is free; determinism is restored by the
	// merge. slabEvents reports the completion count to the adaptive slab
	// sizing below.
	slabEvents := 0
	runSlab := func(horizon float64) error {
		slabEvents = 0
		if len(active) == 0 {
			return nil
		}
		slabHorizon = horizon
		if pool != nil && len(active) >= poolMinShards {
			pool.dispatch(active)
		} else {
			for _, s := range active {
				runOne(s)
			}
		}
		total := 0
		for _, s := range active {
			if errs[s] != nil {
				return errs[s]
			}
			total += len(comps[s])
		}
		slabEvents = total
		if rm != nil {
			rm.slab(len(active), total)
		}
		if len(active) == 1 {
			s := active[0]
			for i := range comps[s] {
				fold(comps[s][i])
			}
		} else {
			lists, gbase := z.lists[:0], z.gbase[:0]
			for _, s := range active {
				lists = append(lists, comps[s])
				gbase = append(gbase, base[s])
			}
			z.merger.reset(lists, gbase)
			for {
				c, ok := z.merger.next()
				if !ok {
					break
				}
				fold(c)
			}
		}
		for _, s := range active {
			sh.Update(s, groups[s].NextEvent())
		}
		return nil
	}

	autoSlab := sc.Slab == 0
	slabCap := sc.Slab
	if autoSlab {
		slabCap = math.Inf(1) // uncapped until the first density estimate
	}
	var estEvents, estSpan float64

	for completed+fr.droppedJobs() < cfg.Jobs {
		// Choose the slab horizon: the earliest meta event — fault
		// transition, retry re-arrival, fresh arrival, equal-time ties in
		// that priority order (strict < keeps the first-tried kind) —
		// optionally capped by the slab length. Empty capped slabs (no
		// completion before the cap) are skipped wholesale — slab
		// boundaries with no events are unobservable, so jumping to the
		// next event changes nothing.
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
		if slabCap > 0 && ev != evNone && frontier+slabCap < horizon {
			if e := sh.Min(); e <= frontier+slabCap {
				horizon, ev = frontier+slabCap, evNone
			} else if e < horizon {
				horizon, ev = e, evNone
			}
		}
		// Pop the shards with an event inside the slab off the next-event
		// heap; runSlab re-keys them after the advance. Idle shards are
		// never touched.
		active = active[:0]
		for {
			e := sh.Min()
			if math.IsInf(e, 1) || e > horizon {
				break
			}
			s := sh.MinIndex()
			active = append(active, s)
			sh.Update(s, math.Inf(1))
		}
		if ev == evNone && len(active) == 0 {
			break // drained: nothing running, no events left
		}
		if err := runSlab(horizon); err != nil {
			return nil, err
		}
		if autoSlab && !math.IsInf(horizon, 1) {
			if span := horizon - frontier; span > 0 {
				estSpan += span
				estEvents += float64(slabEvents)
				if estEvents > 0 {
					slabCap = autoSlabTarget * estSpan / estEvents
				}
				if estEvents >= autoSlabWindow {
					estEvents *= 0.5
					estSpan *= 0.5
				}
			}
		}
		if !math.IsInf(horizon, 1) && horizon > frontier {
			frontier = horizon
		}
		if fr != nil && completed+fr.dropped >= cfg.Jobs {
			// The slab finished the run at the meta event's instant: stop
			// before handling it, so Elapsed and the fault counters do not
			// count an event past the run's last job.
			break
		}
		switch ev {
		case evFault:
			fe := fr.inj.Pop()
			if fe.T > now {
				now = fe.T // the transition is an observable event
			}
			s := shardOf[fe.Server]
			if fe.Down {
				done, victims, err := groups[s].Fail(fe.T, fe.Server-base[s])
				if err != nil {
					return nil, err
				}
				for _, c := range done {
					fold(c)
				}
				sh.Update(s, groups[s].NextEvent())
				fr.crash(fe.T, victims, rm)
			} else {
				if err := groups[s].Repair(fe.T, fe.Server-base[s]); err != nil {
					return nil, err
				}
				sh.Update(s, groups[s].NextEvent())
				fr.up++
				rm.repair()
				if b, ok := servers[fe.Server].Rates().(online.EpochBumper); ok {
					// The server was out of service: force decisions memoized
					// over its learner to be re-derived, not served stale.
					b.BumpEpoch()
				}
				// A server is back: drain the parked shelf FIFO through the
				// normal dispatch path at the repair's instant.
				for len(fr.parked) > 0 {
					j := fr.parked[0]
					copy(fr.parked, fr.parked[1:])
					fr.parked[len(fr.parked)-1] = nil
					fr.parked = fr.parked[:len(fr.parked)-1]
					if err := place(fe.T, j); err != nil {
						return nil, err
					}
				}
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
	for s, g := range groups {
		if err := g.SettleTo(now); err != nil {
			return nil, fmt.Errorf("farm: shard %d: %w", s, err)
		}
	}
	return assembleResult(d, servers, totalContexts, cfg, now, completed, counted, turnaround, goodput, turnarounds, fr, rm), nil
}
