// Package online closes the paper's "perfect knowledge" gap: every
// scheduler and dispatcher in the repo decides over a RateSource — the
// per-coschedule WIPC/IPC knowledge the paper assumes comes from an
// oracle performance database — and this package supplies RateSources
// that *learn* those rates at run time instead.
//
// Three estimators are provided:
//
//   - Oracle wraps the perfdb table: the paper's idealised setting, and
//     the baseline every learner is measured against.
//   - Sampler is an SOS-style sampling learner (after Snavely & Tullsen):
//     it alternates sample phases, which steer the scheduler toward the
//     least-measured feasible coschedule, with symbiosis phases that
//     exploit the rates measured so far; an epsilon-greedy knob sets the
//     long-run fraction of time spent sampling.
//   - Pairwise is the model-based learner: it fits a per-pair interference
//     matrix to the observed interval rates by incrementally accumulated
//     least squares, so it generalises to coschedules it has never run.
//
// Estimators are fed by the measurement hook in eventsim.Server.Advance,
// which reports the ground-truth (coschedule, dt, per-slot progress) of
// every simulated interval — the information hardware counters would give
// a real symbiotic scheduler. All estimators are deterministic per seed
// and mutate state only inside the (single-threaded) event loop, so
// runner sweeps over online simulations stay byte-identical at any
// parallelism level.
package online

import (
	"fmt"
	"strings"

	"symbiosched/internal/perfdb"
	"symbiosched/internal/workload"
)

// RateSource is the per-coschedule performance knowledge that schedulers
// (sched.MAXIT, sched.SRPT) and dispatchers (farm.LeastInterference)
// decide over. The oracle *perfdb.Table satisfies it directly; estimators
// in this package substitute learned rates for the oracle's.
type RateSource interface {
	// Name identifies the source in reports.
	Name() string
	// K is the number of contexts of the machine the rates describe.
	K() int
	// JobWIPC returns the (estimated) WIPC of one job of global type b in
	// coschedule c. Implementations must return a positive rate for any
	// b in c, even for coschedules never observed.
	JobWIPC(c workload.Coschedule, b int) float64
	// InstTP returns the (estimated) instantaneous throughput of
	// coschedule c — the score MAXIT-style schedulers maximise.
	InstTP(c workload.Coschedule) float64
	// Epoch is the source's rate-revision counter: within one epoch the
	// source answers every query for one multiset identically, so
	// schedulers may memoize decisions made over it and keep the memo
	// until the epoch changes. Static sources (the oracle table and its
	// wrapper) return a constant; learners bump the counter whenever an
	// observation moves their estimates (Sampler and Pairwise bump it in
	// ObserveInterval), which is what lets online runs share the oracle's
	// decision memo between observations.
	Epoch() uint64
}

// The oracle table is one RateSource implementation.
var _ RateSource = (*perfdb.Table)(nil)

// EpochBumper is the optional capability of rate sources whose Epoch
// can be force-advanced without an observation. The farm bumps a
// repaired server's source so every epoch-gated decision cache — the
// MAXIT decision memo — drops whatever it memoized before the outage:
// a learner's estimates
// may have gone stale relative to the reality the server returns to.
// Static sources (the oracle table and its wrapper) deliberately do not
// implement it — their rates cannot go stale, so their memos stay sound
// across a repair.
type EpochBumper interface{ BumpEpoch() }

// Sampler and Pairwise are the bumpable sources.
var (
	_ EpochBumper = (*Sampler)(nil)
	_ EpochBumper = (*Pairwise)(nil)
)

// IntervalObserver receives ground-truth interval measurements from the
// event loop: canonical coschedule cos ran for dt time units and the job
// in slot i progressed by progress[i] WIPC-units of work (progress[i]/dt
// is slot i's measured WIPC). Callers may reuse both the cos and progress
// slices across calls; implementations must copy whatever they retain.
type IntervalObserver interface {
	ObserveInterval(cos workload.Coschedule, dt float64, progress []float64)
}

// Estimator is a RateSource that learns from interval observations.
type Estimator interface {
	RateSource
	IntervalObserver
	// Observations returns how many intervals have been recorded.
	Observations() int
}

// Names lists the built-in estimators in presentation order.
var Names = []string{"oracle", "sampler", "pairwise"}

// New builds a fresh estimator by name for the machine described by the
// oracle table t (the table supplies K and the suite size; only "oracle"
// retains the table's rates). Estimators carry run state and must not be
// shared across simulations; seed drives the sampler's phase draws.
func New(name string, t *perfdb.Table, seed uint64) (Estimator, error) {
	switch name {
	case "oracle":
		return Oracle{Table: t}, nil
	case "sampler":
		return NewSampler(t.K(), SamplerConfig{Epsilon: 0.1, Seed: seed}), nil
	case "pairwise":
		return NewPairwise(t.K(), len(t.Suite()), PairwiseConfig{}), nil
	default:
		return nil, fmt.Errorf("online: unknown estimator %q (want one of %s)",
			name, strings.Join(Names, ", "))
	}
}

// Oracle is the perfect-knowledge estimator: it serves the table's true
// rates and learns nothing. It is the baseline of the knowledge-gap
// experiment and the default rate source everywhere.
type Oracle struct{ Table *perfdb.Table }

// Name implements RateSource.
func (Oracle) Name() string { return "oracle" }

// K implements RateSource.
func (o Oracle) K() int { return o.Table.K() }

// JobWIPC implements RateSource.
func (o Oracle) JobWIPC(c workload.Coschedule, b int) float64 { return o.Table.JobWIPC(c, b) }

// InstTP implements RateSource.
func (o Oracle) InstTP(c workload.Coschedule) float64 { return o.Table.InstTP(c) }

// Epoch implements RateSource: the oracle's rates never drift.
func (Oracle) Epoch() uint64 { return 0 }

// MaxJobWIPC exposes the table's admissible per-slot rate bound, so
// schedulers prune over the wrapper exactly as over the bare table.
func (o Oracle) MaxJobWIPC(b, slots int) float64 { return o.Table.MaxJobWIPC(b, slots) }

// ObserveInterval implements IntervalObserver: the oracle has nothing to
// learn.
func (Oracle) ObserveInterval(workload.Coschedule, float64, []float64) {}

// Observations implements Estimator.
func (Oracle) Observations() int { return 0 }
