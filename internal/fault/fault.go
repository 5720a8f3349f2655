// Package fault supplies the deterministic failure model the farm
// engines inject: per-server alternating-renewal failure/repair
// processes (exponential MTBF/MTTR), a farm-level injector that orders
// their transitions into one (time, server index) event stream, and the
// retry queue re-dispatched jobs wait in.
//
// Determinism is the whole design: every server's process runs on its
// own RNG, seeded from (run seed, server index) alone — never from a
// shared stream — so the fault trajectory of server i is independent of
// farm size, engine (the farm engine or the tests' lockstep reference)
// and parallelism.
// Two runs of the same seed see the same crashes at the same times, and
// comparing checkpoint policies or dispatchers under churn is a
// common-random-numbers comparison.
package fault

import (
	"fmt"
	"math"

	"symbiosched/internal/eventsim"
	"symbiosched/internal/sched"
	"symbiosched/internal/stats"
)

// Policy selects what happens to a crashed server's jobs.
type Policy string

const (
	// Restart forfeits each victim's progress: the job re-enters the farm
	// with its full size remaining, and the lost progress counts as
	// wasted work.
	Restart Policy = "restart"
	// Resume keeps each victim's completed work — the checkpointed-state
	// idealisation: only the failed server's future capacity is lost.
	Resume Policy = "resume"
)

// Policies lists the checkpoint policies in presentation order.
var Policies = []Policy{Restart, Resume}

// Config parameterises fault injection for one run. The zero value
// disables it (MTBF 0 — no failure process exists).
type Config struct {
	// MTBF is each server's mean up-time between failures, in simulated
	// time units. 0 disables fault injection entirely.
	MTBF float64
	// MTTR is each server's mean repair time. Required positive when
	// MTBF is set.
	MTTR float64
	// MaxRetries caps how often one job may be re-dispatched after a
	// crash; a job crashing beyond the cap is dropped (counted, never
	// completed). 0 drops victims on their first crash.
	MaxRetries int
	// RetryDelay is the base backoff before a crash victim re-arrives:
	// attempt k waits RetryDelay·2^(k-1). 0 re-dispatches at the crash
	// instant.
	RetryDelay float64
	// Checkpoint selects the victims' work policy (default Restart).
	Checkpoint Policy
}

// Enabled reports whether the config injects any faults.
func (c Config) Enabled() bool { return c.MTBF > 0 }

// WithDefaults fills the defaultable fields (only the checkpoint
// policy; the rates have no sensible default and must be explicit).
func (c Config) WithDefaults() Config {
	if c.Checkpoint == "" {
		c.Checkpoint = Restart
	}
	return c
}

// ConfigError is a typed fault-configuration error: the offending field
// and what is wrong with it. CLI flag validation and farm.Config
// validation both surface it, so a bad -mtbf fails fast instead of
// panicking mid-run.
type ConfigError struct {
	Field string
	Msg   string
}

func (e *ConfigError) Error() string { return fmt.Sprintf("fault: %s %s", e.Field, e.Msg) }

// Validate checks the config, returning a *ConfigError naming the first
// offending field. The disabled config (MTBF 0) is always valid as long
// as no field is outright negative or unknown.
func (c Config) Validate() error {
	if c.MTBF < 0 || math.IsNaN(c.MTBF) || math.IsInf(c.MTBF, 0) {
		return &ConfigError{"MTBF", fmt.Sprintf("must be a non-negative finite time, got %v", c.MTBF)}
	}
	if c.MTTR < 0 || math.IsNaN(c.MTTR) || math.IsInf(c.MTTR, 0) {
		return &ConfigError{"MTTR", fmt.Sprintf("must be a non-negative finite time, got %v", c.MTTR)}
	}
	if c.MTBF > 0 && c.MTTR <= 0 {
		return &ConfigError{"MTTR", fmt.Sprintf("must be positive when MTBF is set, got %v", c.MTTR)}
	}
	if c.MaxRetries < 0 {
		return &ConfigError{"MaxRetries", fmt.Sprintf("must be non-negative, got %d", c.MaxRetries)}
	}
	if c.RetryDelay < 0 || math.IsNaN(c.RetryDelay) || math.IsInf(c.RetryDelay, 0) {
		return &ConfigError{"RetryDelay", fmt.Sprintf("must be a non-negative finite time, got %v", c.RetryDelay)}
	}
	switch c.Checkpoint {
	case "", Restart, Resume:
	default:
		return &ConfigError{"Checkpoint", fmt.Sprintf("unknown policy %q (want %s or %s)", c.Checkpoint, Restart, Resume)}
	}
	return nil
}

// Backoff returns the deterministic re-arrival delay of a job's k-th
// retry (k >= 1): RetryDelay·2^(k-1), the usual exponential backoff.
// The doubling is capped so absurd retry counts cannot overflow to +Inf
// and stall the clock.
func (c Config) Backoff(attempt int) float64 {
	if c.RetryDelay <= 0 || attempt <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift > 60 {
		shift = 60
	}
	return c.RetryDelay * float64(uint64(1)<<shift)
}

// seedSalt decorrelates the fault streams from the engines' other RNG
// families (arrival = seed, job stream = seed^9e37…, dispatch =
// seed^d1b5…, estimators = seed + (i+1)·9e37…).
const seedSalt = 0x94d049bb133111eb

// ProcessSeed derives server i's fault-stream seed from the run seed.
// It depends only on (seed, i): adding servers, changing the dispatcher
// or switching engines never perturbs an existing server's fault times.
func ProcessSeed(seed uint64, server int) uint64 {
	return seed ^ seedSalt ^ (uint64(server)+1)*0x9e3779b97f4a7c15
}

// Event is one fault transition: server Server crashes (Down) or is
// repaired (!Down) at absolute time T.
type Event struct {
	T      float64
	Server int
	Down   bool
}

// process is one server's alternating-renewal failure/repair process.
type process struct {
	rng  *stats.RNG
	next float64 // absolute time of the next transition
	down bool    // state the NEXT transition moves out of
}

// Injector merges every server's failure/repair process into one
// deterministic event stream, ordered by (time, server index) — the
// same tie rule every event loop in this repo uses. All servers start
// up; each server alternates Exp(1/MTBF) up-periods with Exp(1/MTTR)
// down-periods forever.
type Injector struct {
	mtbf, mttr float64
	procs      []process
	h          *eventsim.TimeHeap
}

// NewInjector builds the injector for n servers under cfg (which must
// be enabled and validated), seeded from the run seed.
func NewInjector(cfg Config, n int, seed uint64) *Injector {
	inj := &Injector{mtbf: cfg.MTBF, mttr: cfg.MTTR, procs: make([]process, n), h: eventsim.NewTimeHeap(n)}
	for i := range inj.procs {
		p := &inj.procs[i]
		p.rng = stats.NewRNG(ProcessSeed(seed, i))
		p.next = p.rng.Exp(1 / cfg.MTBF)
		inj.h.Update(i, p.next)
	}
	return inj
}

// Next returns the absolute time of the earliest pending transition.
// Fault processes never end, so it is always finite.
func (inj *Injector) Next() float64 { return inj.h.Min() }

// Pop consumes and returns the earliest transition (lowest server index
// on ties) and schedules that server's next one.
func (inj *Injector) Pop() Event {
	i := inj.h.MinIndex()
	p := &inj.procs[i]
	t := p.next
	p.down = !p.down
	if p.down {
		p.next = t + p.rng.Exp(1/inj.mttr)
	} else {
		p.next = t + p.rng.Exp(1/inj.mtbf)
	}
	// Guard against float stagnation: at large t a draw below one ulp
	// would re-pop the same server forever at the same instant.
	if p.next <= t {
		p.next = math.Nextafter(t, math.Inf(1))
	}
	inj.h.Update(i, p.next)
	return Event{T: t, Server: i, Down: p.down}
}

// retryItem is one parked crash victim awaiting re-dispatch.
type retryItem struct {
	due float64
	seq int // insertion order, the deterministic tie-breaker
	job *sched.Job
}

// RetryQueue holds crash victims until their backoff expires, ordered
// by (due time, insertion order) — two victims of the same crash with
// the same backoff re-dispatch in the queue order they held on the
// failed server.
type RetryQueue struct {
	items []retryItem
	seq   int
}

// Len returns the number of queued victims.
func (q *RetryQueue) Len() int { return len(q.items) }

// Next returns the earliest due time, or +Inf when the queue is empty.
func (q *RetryQueue) Next() float64 {
	if len(q.items) == 0 {
		return math.Inf(1)
	}
	return q.items[0].due
}

// Push enqueues job j for re-dispatch at absolute time due.
func (q *RetryQueue) Push(j *sched.Job, due float64) {
	q.items = append(q.items, retryItem{due: due, seq: q.seq, job: j})
	q.seq++
	q.up(len(q.items) - 1)
}

// Pop removes and returns the earliest-due job (lowest insertion order
// on ties); nil when empty.
func (q *RetryQueue) Pop() *sched.Job {
	if len(q.items) == 0 {
		return nil
	}
	j := q.items[0].job
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = retryItem{} // release the job pointer
	q.items = q.items[:last]
	q.down(0)
	return j
}

func (q *RetryQueue) less(a, b int) bool {
	if q.items[a].due != q.items[b].due {
		return q.items[a].due < q.items[b].due
	}
	return q.items[a].seq < q.items[b].seq
}

func (q *RetryQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *RetryQueue) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(q.items) && q.less(l, smallest) {
			smallest = l
		}
		if r < len(q.items) && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}
