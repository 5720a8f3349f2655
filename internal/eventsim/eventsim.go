// Package eventsim runs the paper's Section VI throughput and latency
// experiments as a continuous-time discrete-event simulation: jobs of
// uniformly random types arrive (Poisson for the latency experiment, a
// topped-up pool for the maximum-throughput experiment), a scheduler
// selects which jobs occupy the K contexts at every arrival/completion
// event with free preemption, and jobs progress at the per-coschedule
// rates from the performance database.
//
// Reported metrics follow the paper: mean turnaround time, processor
// utilisation (mean number of busy contexts) and the fraction of time the
// system is completely empty — the quantities of Figure 5 — plus the
// achieved throughput for the maximum-throughput experiment of Figure 6.
package eventsim

import (
	"fmt"
	"math"

	"symbiosched/internal/numeric"
	"symbiosched/internal/online"
	"symbiosched/internal/perfdb"
	"symbiosched/internal/sched"
	"symbiosched/internal/stats"
	"symbiosched/internal/workload"
)

const eps = 1e-9

// LatencyConfig parameterises a latency experiment.
type LatencyConfig struct {
	// Lambda is the Poisson arrival rate in jobs per time unit. With unit
	// job sizes it equals the offered load in work per time unit.
	Lambda float64
	// Jobs is the number of jobs to complete (default 20_000).
	Jobs int
	// Warmup jobs are excluded from the turnaround statistics
	// (default Jobs/10).
	Warmup int
	// JobSize is the mean work per job (default 1), matching the paper's
	// equal-work assumption.
	JobSize float64
	// SizeShape selects the job-size distribution around the JobSize
	// mean: 0 for deterministic sizes, 1 for exponential (the classic
	// Snavely-style setup), k >= 2 for Erlang-k (squared coefficient of
	// variation 1/k — "approximately the same size" as the paper puts it).
	SizeShape int
	// Seed drives arrivals, job types and sizes (default 1).
	Seed uint64
}

func (c LatencyConfig) withDefaults() LatencyConfig {
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

// Result summarises an experiment.
type Result struct {
	// MeanTurnaround is the mean time from arrival to completion over the
	// post-warmup jobs.
	MeanTurnaround float64
	// Utilisation is the time-averaged number of busy contexts.
	Utilisation float64
	// EmptyFraction is the fraction of time with zero jobs in the system.
	EmptyFraction float64
	// Throughput is completed work divided by elapsed time.
	Throughput float64
	// Completed is the number of completed jobs, Elapsed the simulated
	// time span.
	Completed int
	Elapsed   float64
	// MeanJobsInSystem is the time-averaged number of jobs in the system.
	MeanJobsInSystem float64
}

// Latency runs a latency experiment: Poisson arrivals at cfg.Lambda on
// workload w, scheduled by s on the K contexts of table t.
func Latency(t *perfdb.Table, w workload.Workload, s sched.Scheduler, cfg LatencyConfig) (*Result, error) {
	return LatencyObserved(t, w, s, nil, cfg)
}

// LatencyObserved is Latency with an interval observer installed on the
// server — the online-learning loop: the scheduler s typically decides
// over the estimator passed as obs, while the server measures the true
// rates of every simulated interval into it. With obs == nil (or the
// no-op online.Oracle) it is exactly Latency, bit for bit.
func LatencyObserved(t *perfdb.Table, w workload.Workload, s sched.Scheduler, obs online.IntervalObserver, cfg LatencyConfig) (*Result, error) {
	if !(cfg.Lambda > 0) || math.IsInf(cfg.Lambda, 1) {
		return nil, fmt.Errorf("eventsim: arrival rate %v is not finite and positive", cfg.Lambda)
	}
	if err := CheckJobSizes(cfg.JobSize, cfg.SizeShape); err != nil {
		return nil, fmt.Errorf("eventsim: %w", err)
	}
	cfg = cfg.withDefaults()
	rng := stats.NewRNG(cfg.Seed)
	gen := func() float64 { return rng.Exp(cfg.Lambda) }
	return run(t, w, s, obs, cfg, gen, 0)
}

// CheckJobSizes rejects a job-size distribution a JobStream cannot draw
// from: a non-finite mean, or a negative shape. Every engine feeding a
// JobStream checks its config with it.
func CheckJobSizes(size float64, shape int) error {
	if math.IsNaN(size) || math.IsInf(size, 0) {
		return fmt.Errorf("job size %v is not finite", size)
	}
	if shape < 0 {
		return fmt.Errorf("negative job-size shape %d", shape)
	}
	return nil
}

// MaxThroughputConfig parameterises a maximum-throughput experiment
// (arrival rate above the maximum service rate).
type MaxThroughputConfig struct {
	// Jobs is the number of jobs to complete (default 20_000).
	Jobs int
	// Pool is the number of jobs kept in the system (default 4*K),
	// mimicking an arrival rate permanently above the service rate with a
	// bounded queue.
	Pool int
	// JobSize is the fixed work per job (default 1).
	JobSize float64
	// Seed drives job types (default 1).
	Seed uint64
}

// MaxThroughput runs a maximum-throughput experiment: the system is kept
// topped up with Pool jobs of uniformly random types so the scheduler
// always has choices, and the long-run throughput is measured (Figure 6).
func MaxThroughput(t *perfdb.Table, w workload.Workload, s sched.Scheduler, cfg MaxThroughputConfig) (*Result, error) {
	if err := CheckJobSizes(cfg.JobSize, 0); err != nil {
		return nil, fmt.Errorf("eventsim: %w", err)
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 20_000
	}
	if cfg.Pool <= 0 {
		cfg.Pool = 4 * t.K()
	}
	if cfg.JobSize <= 0 {
		cfg.JobSize = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	lcfg := LatencyConfig{
		Jobs:    cfg.Jobs,
		Warmup:  cfg.Jobs / 10,
		JobSize: cfg.JobSize,
		Seed:    cfg.Seed,
		// Lambda unused by the pooled generator.
		Lambda: 1,
	}
	return run(t, w, s, nil, lcfg, nil, cfg.Pool)
}

// jobChunk is how many jobs a JobStream allocates at once when its free
// list is empty. A run's jobs in flight, not its job count, bound the
// chunks it ever allocates.
const jobChunk = 256

// JobStream is a deterministic job factory over a workload: types are
// drawn uniformly, sizes follow the config's JobSize/SizeShape, and IDs
// increase with creation order. The stream is seeded exactly as the
// single-server experiments seed theirs, so a farm of one server fed by
// the same stream reproduces Latency bit for bit.
//
// Job storage is recycled. An engine hands a job back with Recycle once
// nothing will read it again, and Next reuses it, overwriting every
// field; only when the free list is empty does Next carve a job out of a
// jobChunk-sized block. Recycling changes no draw and no ID: it only
// decides which memory the next job occupies.
type JobStream struct {
	w      workload.Workload
	rng    *stats.RNG
	size   float64 // mean work per job
	shape  int     // 0 deterministic, 1 exponential, k >= 2 Erlang-k
	nextID int
	free   []*sched.Job // recycled jobs, reused LIFO
	chunk  []sched.Job  // unused tail of the current block
}

// NewJobStream returns the job stream over workload w for cfg.
func NewJobStream(w workload.Workload, cfg LatencyConfig) *JobStream {
	cfg = cfg.withDefaults()
	return &JobStream{
		w:     w,
		rng:   stats.NewRNG(cfg.Seed ^ 0x9e3779b97f4a7c15),
		size:  cfg.JobSize,
		shape: cfg.SizeShape,
	}
}

// Next returns the stream's next job, arriving at now.
func (s *JobStream) Next(now float64) *sched.Job {
	size := s.size
	if s.shape >= 1 {
		// Erlang-k with mean JobSize (k = 1 is exponential).
		k := s.shape
		size = 0
		for i := 0; i < k; i++ {
			size += s.rng.Exp(float64(k) / s.size)
		}
	}
	var j *sched.Job
	if n := len(s.free); n > 0 {
		j = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if len(s.chunk) == 0 {
			s.chunk = make([]sched.Job, jobChunk)
		}
		j = &s.chunk[0]
		s.chunk = s.chunk[1:]
	}
	*j = sched.Job{
		ID:        s.nextID,
		Type:      s.w[s.rng.Intn(len(s.w))],
		Size:      size,
		Remaining: size,
		Arrival:   now,
	}
	s.nextID++
	return j
}

// Recycle returns j to the stream for reuse by a later Next. The caller
// must hold the only remaining reference: no queue, scheduler, retry
// queue or pending completion may read j afterwards.
func (s *JobStream) Recycle(j *sched.Job) { s.free = append(s.free, j) }

// run is the shared event loop, driving one Server. interarrival == nil
// selects pooled mode: the system is refilled to pool jobs immediately
// (pool <= 0 defaults to 4*K). obs, when non-nil, receives every
// interval's ground-truth measurement.
func run(t *perfdb.Table, w workload.Workload, s sched.Scheduler, obs online.IntervalObserver, cfg LatencyConfig, interarrival func() float64, pool int) (*Result, error) {
	pooled := interarrival == nil
	if pool <= 0 {
		pool = 4 * t.K()
	}

	sv := NewServer(t, s)
	if obs != nil {
		sv.SetObserver(obs)
	}
	jobs := NewJobStream(w, cfg)

	var now float64
	var nextArrival float64
	arrivalsLeft := cfg.Jobs
	if pooled {
		for sv.JobsInSystem() < pool && arrivalsLeft > 0 {
			sv.Add(jobs.Next(0))
			arrivalsLeft--
		}
	} else {
		nextArrival = interarrival()
	}

	var turnaround numeric.KahanSum
	completed, counted := 0, 0

	for completed < cfg.Jobs {
		if sv.JobsInSystem() == 0 {
			if pooled || arrivalsLeft == 0 {
				break // drained
			}
			// Idle until the next arrival.
			sv.Advance(nextArrival - now)
			now = nextArrival
			sv.Add(jobs.Next(now))
			arrivalsLeft--
			nextArrival = now + interarrival()
			continue
		}
		if err := sv.Reschedule(); err != nil {
			return nil, err
		}
		// Time to the next completion, or the next arrival, whichever first.
		dt := sv.TimeToNextCompletion()
		arrivalDue := false
		if !pooled && arrivalsLeft > 0 && now+dt >= nextArrival {
			dt = nextArrival - now
			arrivalDue = true
		}
		if dt < 0 {
			dt = 0
		}
		now += dt
		for _, j := range sv.Advance(dt) {
			completed++
			if completed > cfg.Warmup {
				turnaround.Add(now - j.Arrival)
				counted++
			}
			jobs.Recycle(j)
		}
		// Arrivals / pool refill.
		if arrivalDue {
			sv.Add(jobs.Next(now))
			arrivalsLeft--
			if arrivalsLeft > 0 {
				nextArrival = now + interarrival()
			}
		}
		if pooled {
			for sv.JobsInSystem() < pool && arrivalsLeft > 0 {
				sv.Add(jobs.Next(now))
				arrivalsLeft--
			}
		}
	}
	if now <= 0 {
		return nil, fmt.Errorf("eventsim: experiment completed no work")
	}
	res := &Result{
		Utilisation:   sv.BusyTime() / now,
		EmptyFraction: sv.EmptyTime() / now,
		Throughput:    sv.WorkDone() / now,
		Completed:     completed,
		Elapsed:       now,
	}
	res.MeanJobsInSystem = res.Utilisation // lower bound; refined below
	if counted > 0 {
		res.MeanTurnaround = turnaround.Value() / float64(counted)
		// Little's law over the counted window (approximate).
		res.MeanJobsInSystem = res.MeanTurnaround * float64(counted) / now
	}
	return res, nil
}
