// Package farm simulates a farm of symbiosis-aware servers behind one
// dispatcher — the cluster-scale extension of the paper's single-server
// Section VI study. A single Poisson stream of jobs arrives at the farm; a
// pluggable Dispatcher immediately routes each job to one of N (possibly
// heterogeneous) servers; each server runs its own scheduler over its own
// performance table via the per-server stepping primitives exported by
// internal/eventsim.
//
// The farm multiplexes all servers on one deterministic clock: every event
// (the globally earliest completion, or the next arrival) advances every
// server by the same dt, and servers are visited in index order — no map
// iteration, no goroutines — so a run is bit-reproducible from its seed.
// Replication sweeps run through internal/runner with index-ordered
// reduction, keeping aggregate results bit-identical at any parallelism.
//
// With one server the farm event loop reduces exactly to the single-server
// experiments: Simulate over a farm of one reproduces eventsim.Latency bit
// for bit (same RNG streams, same event arithmetic), which is pinned by a
// test. With interference disabled (perfdb.UniformModel) and exponential
// sizes it reduces to an M/M/K queue and is cross-validated against the
// Erlang-C analytics in internal/queueing.
package farm

import (
	"fmt"
	"math"
	"sort"

	"symbiosched/internal/eventsim"
	"symbiosched/internal/fault"
	"symbiosched/internal/metrics"
	"symbiosched/internal/numeric"
	"symbiosched/internal/online"
	"symbiosched/internal/perfdb"
	"symbiosched/internal/sched"
	"symbiosched/internal/stats"
	"symbiosched/internal/workload"
)

// ServerSpec describes one server of the farm: its ground-truth
// performance table plus factories for its scheduler and (optionally) its
// online rate estimator. The factories run once per simulation so that
// stateful schedulers (MAXTP) and estimators never leak state across runs
// or servers.
type ServerSpec struct {
	Table *perfdb.Table
	// Sched builds the server's scheduler over the rate source rs — the
	// oracle Table itself unless Estimator is set, in which case rs is the
	// freshly built estimator and the scheduler decides over learned rates.
	Sched func(rs online.RateSource) (sched.Scheduler, error)
	// Estimator, when set, builds a fresh online estimator per simulation.
	// The server feeds it ground-truth interval measurements and exposes
	// it to symbiosis-aware dispatchers in place of the oracle table. The
	// seed is derived by Simulate from the run's seed and the server
	// index, so replications learn on independent streams.
	Estimator func(seed uint64) (online.Estimator, error)
}

// Phase is one piece of a piecewise-constant arrival-rate schedule: the
// Poisson rate Rate applies for Duration simulated time units.
type Phase struct {
	Duration float64
	Rate     float64
}

// Config parameterises one farm simulation. The fields mirror
// eventsim.LatencyConfig; Lambda is the total arrival rate offered to the
// whole farm.
type Config struct {
	// Lambda is the Poisson arrival rate to the farm in jobs per time unit.
	Lambda float64
	// Schedule, when non-empty, makes the arrival rate time-varying:
	// the phases apply in order from time zero and the schedule repeats
	// cyclically, replacing the constant Lambda (which then only has to
	// be positive and serves as the nominal rate in reports). Phase
	// durations must be positive; rates must be non-negative with at
	// least one positive. Arrivals are generated phase by phase with a
	// fresh exponential draw at every phase boundary — valid for Poisson
	// streams by memorylessness, and deterministic per seed.
	Schedule []Phase
	// SLO, when positive, is the turnaround-time service-level objective:
	// Result.SLOAttainment reports the fraction of post-warmup jobs whose
	// turnaround is at most SLO.
	SLO float64
	// Jobs is the number of jobs to complete (default 20_000).
	Jobs int
	// Warmup jobs are excluded from the turnaround statistics
	// (default Jobs/10).
	Warmup int
	// JobSize is the mean work per job (default 1).
	JobSize float64
	// SizeShape selects the job-size distribution: 0 deterministic,
	// 1 exponential, k >= 2 Erlang-k.
	SizeShape int
	// Seed drives arrivals, job types/sizes and randomised dispatchers
	// (default 1). Arrival and job streams are seeded exactly as
	// eventsim.Latency seeds them; the dispatcher draws from an
	// independent third stream so that all dispatch policies see the
	// same arrival process (common random numbers).
	Seed uint64
	// Faults, when enabled (MTBF > 0), injects deterministic server
	// failure/repair events into the run (internal/fault): crashed
	// servers evict their jobs under Faults.Checkpoint, victims re-enter
	// through the retry policy, dispatchers degrade to the up-set, and
	// Result grows the availability/goodput/retry statistics. The fault
	// streams are seeded per server index from Seed, so the trajectory is
	// common-random-numbers comparable across dispatchers and policies.
	// The zero value disables injection and reproduces the fault-free
	// engines byte-identically.
	Faults fault.Config
	// Metrics, when set, instruments the run (internal/metrics): server
	// occupancy and queue integrals, scheduler memo/prune counters,
	// estimator observation counts, dispatch picks and the jobs-in-system
	// series land in Result.Metrics; engine execution stats in
	// Result.EngineStats. Instruments only observe — enabling them never
	// changes a simulation's Result (pinned by test).
	Metrics bool
}

func (c Config) withDefaults() Config {
	if c.Jobs <= 0 {
		c.Jobs = 20_000
	}
	if c.Warmup <= 0 {
		c.Warmup = c.Jobs / 10
	}
	if c.JobSize <= 0 {
		c.JobSize = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ServerStats is one server's share of a farm result.
type ServerStats struct {
	// Name is the server's table name plus scheduler name.
	Name string
	// Dispatched is the number of jobs the dispatcher routed here.
	Dispatched int
	// Utilisation is the time-averaged number of busy contexts (0..K).
	Utilisation float64
	// EmptyFraction is the fraction of time with zero jobs at this server.
	EmptyFraction float64
	// WorkDone is the completed work in WIPC time units.
	WorkDone float64
}

// Result summarises one farm simulation.
type Result struct {
	// Dispatcher and Servers identify the configuration.
	Dispatcher string
	Servers    int
	// MeanTurnaround and the P50/P95/P99 quantiles summarise the
	// post-warmup turnaround distribution (the tail quantiles are the
	// latency-SLO view of the same runs).
	MeanTurnaround float64
	P50Turnaround  float64
	P95Turnaround  float64
	P99Turnaround  float64
	// Utilisation is farm-wide busy contexts divided by total contexts
	// (a fraction in [0, 1]).
	Utilisation float64
	// EmptyFraction is the mean over servers of the per-server empty
	// fraction.
	EmptyFraction float64
	// Throughput is completed work divided by elapsed time, farm-wide.
	Throughput float64
	// SLOAttainment is the fraction of post-warmup jobs meeting the
	// Config.SLO turnaround objective (zero when no SLO is set).
	SLOAttainment float64
	// Completed counts completed jobs, Counted the post-warmup subset.
	Completed, Counted int
	// Elapsed is the simulated time span.
	Elapsed float64
	// Availability is 1 minus the fraction of server-time spent down
	// (exactly 1 when fault injection is disabled).
	Availability float64
	// Goodput is the completed jobs' total size divided by elapsed time:
	// work that reached a completion, counted once however often it was
	// redone. Throughput minus Goodput is the in-flight and wasted
	// residue.
	Goodput float64
	// WastedWork is the total work forfeited to crashes: progress lost to
	// the restart checkpoint policy plus the surviving progress of
	// dropped jobs.
	WastedWork float64
	// Redispatches counts crash victims placed again; Dropped counts
	// jobs abandoned past the retry cap (they count against Jobs but
	// never complete); Parked counts jobs that arrived while every
	// server was down and waited for a repair.
	Redispatches, Dropped, Parked int
	// RetryP50 and RetryP99 are quantiles of the counted jobs' crash
	// counts (zero without faults: no job ever retries).
	RetryP50, RetryP99 float64
	// MeanJobsInSystem is the farm-wide mean population by Little's law
	// over the counted window (approximate).
	MeanJobsInSystem float64
	// PerServer holds one entry per server, in server order.
	PerServer []ServerStats
	// Metrics is the run's merged instrumentation snapshot (nil unless
	// Config.Metrics): dispatch instruments first, then every server's,
	// merged in server index order. Like the Result scalars it is
	// byte-identical at any ShardConfig — pinned by test.
	Metrics *metrics.Snapshot
	// EngineStats holds engine execution counters (serial event count;
	// sharded slab, shard-advance and merge counts). They legitimately
	// vary with ShardConfig, which is why they are kept out of Metrics.
	EngineStats *metrics.Snapshot
}

// validate checks the (specs, workload, config) triple shared by the
// serial and sharded entry points, before defaults fill the zero fields:
// a non-finite rate, size or SLO is an error, never a default.
func validate(specs []ServerSpec, w workload.Workload, cfg Config) error {
	if len(specs) == 0 {
		return fmt.Errorf("farm: no servers")
	}
	if !(cfg.Lambda > 0) || math.IsInf(cfg.Lambda, 1) {
		return fmt.Errorf("farm: arrival rate %v is not finite and positive", cfg.Lambda)
	}
	if err := eventsim.CheckJobSizes(cfg.JobSize, cfg.SizeShape); err != nil {
		return fmt.Errorf("farm: %w", err)
	}
	if math.IsNaN(cfg.SLO) || math.IsInf(cfg.SLO, 0) {
		return fmt.Errorf("farm: SLO %v is not finite", cfg.SLO)
	}
	if len(cfg.Schedule) > 0 {
		positive := false
		for i, ph := range cfg.Schedule {
			if !(ph.Duration > 0) || math.IsInf(ph.Duration, 1) {
				return fmt.Errorf("farm: schedule phase %d has duration %v, want finite and positive", i, ph.Duration)
			}
			if !(ph.Rate >= 0) || math.IsInf(ph.Rate, 1) {
				return fmt.Errorf("farm: schedule phase %d has rate %v, want finite and non-negative", i, ph.Rate)
			}
			if ph.Rate > 0 {
				positive = true
			}
		}
		if !positive {
			return fmt.Errorf("farm: schedule has no positive-rate phase")
		}
	}
	if len(w) == 0 {
		return fmt.Errorf("farm: empty workload")
	}
	if err := cfg.Faults.Validate(); err != nil {
		return fmt.Errorf("farm: %w", err)
	}
	return nil
}

// buildServers constructs one fresh server per spec — scheduler,
// estimator wiring and all — and returns them with the farm's total
// context count. Both Simulate and SimulateSharded build their fleets
// here, so a server's construction (and its estimator's seed) never
// depends on the engine driving it. The fleet is one eventsim.NewServers
// slab; the returned pointers index into it.
func buildServers(specs []ServerSpec, w workload.Workload, cfg Config) ([]*eventsim.Server, int, error) {
	tables := make([]*perfdb.Table, len(specs))
	scheds := make([]sched.Scheduler, len(specs))
	var ests []online.Estimator // allocated by the first spec that learns
	totalContexts := 0
	for i, sp := range specs {
		if sp.Table == nil || sp.Sched == nil {
			return nil, 0, fmt.Errorf("farm: server %d has no table or scheduler", i)
		}
		for _, b := range w {
			if b < 0 || b >= len(sp.Table.Suite()) {
				return nil, 0, fmt.Errorf("farm: job type %d outside server %d's %d-benchmark table", b, i, len(sp.Table.Suite()))
			}
		}
		rs := online.RateSource(sp.Table)
		if sp.Estimator != nil {
			// cfg.Seed is already replication-specific (ReplicationSeed),
			// so (replication, server) pairs learn on independent streams.
			est, err := sp.Estimator(cfg.Seed + uint64(i+1)*0x9e3779b97f4a7c15)
			if err != nil {
				return nil, 0, fmt.Errorf("farm: server %d estimator: %w", i, err)
			}
			if ests == nil {
				ests = make([]online.Estimator, len(specs))
			}
			ests[i], rs = est, est
		}
		s, err := sp.Sched(rs)
		if err != nil {
			return nil, 0, fmt.Errorf("farm: server %d scheduler: %w", i, err)
		}
		tables[i], scheds[i] = sp.Table, s
		totalContexts += sp.Table.K()
	}
	fleet := eventsim.NewServers(tables, scheds)
	servers := make([]*eventsim.Server, len(fleet))
	for i := range fleet {
		servers[i] = &fleet[i]
		if ests != nil && ests[i] != nil {
			servers[i].SetRates(ests[i])
			servers[i].SetObserver(ests[i])
		}
	}
	return servers, totalContexts, nil
}

// Simulate runs one farm experiment: Poisson arrivals at cfg.Lambda over
// workload w, routed by d over fresh servers built from specs.
func Simulate(specs []ServerSpec, d Dispatcher, w workload.Workload, cfg Config) (*Result, error) {
	if err := validate(specs, w, cfg); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	servers, totalContexts, err := buildServers(specs, w, cfg)
	if err != nil {
		return nil, err
	}
	var rm *runMetrics
	if cfg.Metrics {
		rm = newRunMetrics(servers)
	}

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
	var now float64
	nextArrival := nextArrivalAfter(0)
	arrivalsLeft := cfg.Jobs

	var turnaround, goodput numeric.KahanSum
	expected := cfg.Jobs - cfg.Warmup
	if expected < 0 {
		expected = 0 // Warmup >= Jobs: legal, just counts nothing
	}
	turnarounds := make([]float64, 0, expected)
	completed, counted := 0, 0
	fr := newFaultRun(cfg, len(servers), jobs)

	// Indexed min-heap over the servers' cached next-completion times:
	// the globally earliest completion is a peek instead of a scan over
	// every server, and only servers whose completion horizon moved pay a
	// sift. The heap's minimum is the exact minimum of the same cached
	// values the former scan compared, so event times are bit-identical.
	// (The serial loop keys the shared eventsim.TimeHeap by relative
	// time-to-completion deltas; the sharded engine keys its per-group
	// heaps by absolute times.)
	h := eventsim.NewTimeHeap(len(servers))

	dispatched := 0
	dispatch := func(j *sched.Job) error {
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
		servers[ti].Add(j)
		if err := servers[ti].Reschedule(); err != nil {
			return err
		}
		h.Update(ti, servers[ti].TimeToNextCompletion())
		dispatched++
		rm.pick(now, dispatched-completed)
		return nil
	}

	for completed+fr.droppedJobs() < cfg.Jobs {
		rm.event()
		// Globally earliest completion across servers, or the earliest
		// meta event — fault transition, retry re-arrival, fresh arrival,
		// ties in that priority order — whichever first.
		dt := h.Min()
		ev := evNone
		var evT float64
		consider := func(t float64, kind int) {
			if ev == evNone {
				// First candidate against the completion horizon: the
				// historical arrival form, so with faults disabled the
				// selection is bit-identical to the pre-fault engine.
				if now+dt >= t {
					dt, ev, evT = t-now, kind, t
				}
			} else if t < evT {
				// Later candidates compare absolute times, strict <: an
				// equal-time later kind loses to the earlier-declared kind.
				dt, ev, evT = t-now, kind, t
			}
		}
		if fr != nil {
			consider(fr.inj.Next(), evFault)
			consider(fr.rq.Next(), evRetry)
		}
		if arrivalsLeft > 0 {
			consider(nextArrival, evArrival)
		}
		if math.IsInf(dt, 1) {
			break // drained: nothing running, no events left
		}
		if dt < 0 {
			dt = 0
		}
		now += dt
		// Advance every server on the shared clock; completions and
		// rescheduling happen in server index order.
		for i, sv := range servers {
			done := sv.Advance(dt)
			for _, j := range done {
				completed++
				goodput.Add(j.Size)
				if completed > cfg.Warmup {
					tr := now - j.Arrival
					turnaround.Add(tr)
					turnarounds = append(turnarounds, tr)
					counted++
					if fr != nil {
						fr.retries = append(fr.retries, float64(j.Retries))
					}
				}
				jobs.Recycle(j) // folded: nothing reads j again
			}
			if len(done) > 0 {
				if err := sv.Reschedule(); err != nil {
					return nil, err
				}
			}
			h.Update(i, sv.TimeToNextCompletion())
		}
		if fr != nil && completed+fr.dropped >= cfg.Jobs {
			// The sweep finished the run at the meta event's instant: stop
			// before handling it so Elapsed and the fault counters agree
			// with the sharded engine at such ties.
			break
		}
		switch ev {
		case evFault:
			fe := fr.inj.Pop()
			sv := servers[fe.Server]
			if fe.Down {
				victims := sv.Fail()
				h.Update(fe.Server, sv.TimeToNextCompletion())
				// Stamp the retry backoffs off the injector's absolute event
				// time, not the accumulated clock: the sharded engine does
				// the same, so retry due times match it exactly.
				fr.crash(fe.T, victims, rm)
			} else {
				sv.Repair()
				fr.up++
				rm.repair()
				if b, ok := sv.Rates().(online.EpochBumper); ok {
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
					if err := dispatch(j); err != nil {
						return nil, err
					}
				}
			}
		case evRetry:
			j := fr.rq.Pop()
			if fr.up == 0 {
				fr.park(j, rm)
			} else if err := dispatch(j); err != nil {
				return nil, err
			}
		case evArrival:
			j := jobs.Next(now)
			if fr != nil && fr.up == 0 {
				fr.park(j, rm)
			} else if err := dispatch(j); err != nil {
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
	return assembleResult(d, servers, totalContexts, cfg, now, completed, counted, turnaround, goodput, turnarounds, fr, rm), nil
}

// assembleResult folds the per-server integrals and the turnaround
// sample into a Result. It is shared by the serial and sharded engines:
// the same Kahan fold in the same server order over the same inputs.
func assembleResult(d Dispatcher, servers []*eventsim.Server, totalContexts int, cfg Config, now float64, completed, counted int, turnaround, goodput numeric.KahanSum, turnarounds []float64, fr *faultRun, rm *runMetrics) *Result {
	res := &Result{
		Dispatcher: d.Name(),
		Servers:    len(servers),
		Completed:  completed,
		Counted:    counted,
		Elapsed:    now,
		PerServer:  make([]ServerStats, len(servers)),
	}
	var busy, empty, work, downT numeric.KahanSum
	var prev serverKind
	var name string
	for i, sv := range servers {
		busy.Add(sv.BusyTime())
		empty.Add(sv.EmptyTime() / now)
		work.Add(sv.WorkDone())
		downT.Add(sv.DownTime())
		kind := serverKind{table: sv.Table(), sched: sv.Scheduler().Name()}
		if rs := sv.Rates(); rs != online.RateSource(sv.Table()) {
			kind.learned, kind.rates = true, rs.Name()
		}
		if i == 0 || kind != prev {
			// Servers built from one spec share a name: build it once per
			// run of them.
			name, prev = kind.name(), kind
		}
		res.PerServer[i] = ServerStats{
			Name:          name,
			Dispatched:    sv.Dispatched(),
			Utilisation:   sv.BusyTime() / now,
			EmptyFraction: sv.EmptyTime() / now,
			WorkDone:      sv.WorkDone(),
		}
	}
	res.Utilisation = busy.Value() / now / float64(totalContexts)
	res.EmptyFraction = empty.Value() / float64(len(servers))
	res.Throughput = work.Value() / now
	res.Availability = 1 - downT.Value()/(float64(len(servers))*now)
	res.Goodput = goodput.Value() / now
	if fr != nil {
		res.WastedWork = fr.wasted.Value()
		res.Redispatches = fr.redispatches
		res.Dropped = fr.dropped
		res.Parked = fr.parkedTotal
		if len(fr.retries) > 0 {
			sort.Float64s(fr.retries)
			res.RetryP50 = stats.SortedQuantile(fr.retries, 0.50)
			res.RetryP99 = stats.SortedQuantile(fr.retries, 0.99)
		}
	}
	if counted > 0 {
		res.MeanTurnaround = turnaround.Value() / float64(counted)
		sort.Float64s(turnarounds) // sort once for all three order statistics
		res.P50Turnaround = stats.SortedQuantile(turnarounds, 0.50)
		res.P95Turnaround = stats.SortedQuantile(turnarounds, 0.95)
		res.P99Turnaround = stats.SortedQuantile(turnarounds, 0.99)
		res.MeanJobsInSystem = res.MeanTurnaround * float64(counted) / now
		if cfg.SLO > 0 {
			// turnarounds is sorted: the attainment is the rank of the
			// first value beyond the objective.
			met := sort.Search(len(turnarounds), func(i int) bool { return turnarounds[i] > cfg.SLO })
			res.SLOAttainment = float64(met) / float64(counted)
		}
	}
	rm.finish(res)
	return res
}

// serverKind is what a server's reported name is made of: its table, its
// scheduler's name and, when it decides over learned rates, the rate
// source's name.
type serverKind struct {
	table        *perfdb.Table
	sched, rates string
	learned      bool
}

// name renders the kind as "table/scheduler", plus "+rates" when learned.
func (k serverKind) name() string {
	if k.learned {
		return k.table.Name() + "/" + k.sched + "+" + k.rates
	}
	return k.table.Name() + "/" + k.sched
}

// arrivalStream returns the next-arrival generator over the arrival RNG:
// with an empty schedule it is the constant-rate exponential draw —
// bit-identical to the historical fixed-Lambda path — otherwise it walks
// the cyclic piecewise-constant schedule from t. Within a phase the draw
// is exponential at the phase's rate; a draw that lands past the phase
// boundary is discarded and redrawn from the boundary at the next phase's
// rate, which preserves the Poisson law by memorylessness.
func arrivalStream(cfg Config, arng *stats.RNG) func(t float64) float64 {
	if len(cfg.Schedule) == 0 {
		return func(t float64) float64 { return t + arng.Exp(cfg.Lambda) }
	}
	cycle := 0.0
	for _, ph := range cfg.Schedule {
		cycle += ph.Duration
	}
	return func(t float64) float64 {
		for {
			// Locate the phase containing t; pos ∈ [0, cycle).
			pos := math.Mod(t, cycle)
			start := t - pos
			var rate, end float64
			acc := 0.0
			for _, ph := range cfg.Schedule {
				if pos < acc+ph.Duration {
					rate = ph.Rate
					end = start + acc + ph.Duration
					break
				}
				acc += ph.Duration
			}
			// Guard the restart against float stagnation: once t is large
			// relative to the cycle, (end - t) can round below one ulp and
			// end == t would spin forever.
			if end <= t {
				end = math.Nextafter(t, math.Inf(1))
			}
			if rate > 0 {
				if cand := t + arng.Exp(rate); cand <= end {
					return cand
				}
			}
			// No arrival in this phase (zero rate, or the draw crossed
			// the boundary): restart from the phase end. Progress is
			// guaranteed — end > t — and some phase has a positive rate.
			t = end
		}
	}
}
