package farm

import (
	"context"
	"math"

	"symbiosched/internal/metrics"
	"symbiosched/internal/numeric"
	"symbiosched/internal/runner"
	"symbiosched/internal/workload"
)

// Replication is one seed's farm result within a sweep.
type Replication struct {
	Seed uint64
	*Result
}

// SweepResult aggregates R independent replications of one farm
// configuration: every scalar metric is the mean over replications, folded
// in replication order so the aggregate is bit-identical at any
// parallelism level.
type SweepResult struct {
	Dispatcher   string
	Replications int
	// Means over replications.
	MeanTurnaround, P50Turnaround float64
	P95Turnaround, P99Turnaround  float64
	Utilisation, EmptyFraction    float64
	Throughput, MeanJobsInSystem  float64
	// SLOAttainment is the mean fraction of jobs meeting the Config.SLO
	// turnaround objective (zero when no SLO was set).
	SLOAttainment float64
	// Fault-injection aggregates: Availability and Goodput are means over
	// replications (Availability 1, Goodput the throughput's completed
	// subset even without faults); WastedWork is the mean wasted work;
	// Redispatches, Dropped and Parked are totals across replications.
	Availability, Goodput, WastedWork float64
	Redispatches, Dropped, Parked     int
	// TurnaroundStd is the sample standard deviation of the per-replication
	// mean turnaround — the statistical confidence the cluster story needs.
	TurnaroundStd float64
	// Runs holds the individual replications, in seed order.
	Runs []Replication
	// Metrics is the replications' snapshots merged in replication
	// order (nil unless the runs were instrumented). Like the scalar
	// means, it is bit-identical at any parallelism.
	Metrics *metrics.Snapshot
}

// ReplicationSeed derives the i-th replication's seed from a base seed.
// The derivation depends only on (base, i), never on a shared RNG, so
// replications are independent of execution order. Callers flattening a
// larger grid through internal/runner (e.g. exp.Farm's dispatchers x
// loads x reps sweep) use it to give every grid item its stream.
func ReplicationSeed(base uint64, i int) uint64 {
	return base ^ (uint64(i+1) * 0x9e3779b97f4a7c15)
}

// Aggregate folds replications into a SweepResult in slice order, so the
// aggregate is bit-identical however the runs were scheduled.
func Aggregate(runs []Replication) *SweepResult {
	out := &SweepResult{Replications: len(runs), Runs: runs}
	var turn, p50, p95, p99, util, empty, tp, pop, slo, avail, good, waste, turnSq numeric.KahanSum
	for _, r := range runs {
		out.Dispatcher = r.Dispatcher
		if r.Metrics != nil {
			if out.Metrics == nil {
				out.Metrics = &metrics.Snapshot{}
			}
			out.Metrics.Merge(r.Metrics)
		}
		turn.Add(r.MeanTurnaround)
		p50.Add(r.P50Turnaround)
		p95.Add(r.P95Turnaround)
		p99.Add(r.P99Turnaround)
		util.Add(r.Utilisation)
		empty.Add(r.EmptyFraction)
		tp.Add(r.Throughput)
		pop.Add(r.MeanJobsInSystem)
		slo.Add(r.SLOAttainment)
		avail.Add(r.Availability)
		good.Add(r.Goodput)
		waste.Add(r.WastedWork)
		out.Redispatches += r.Redispatches
		out.Dropped += r.Dropped
		out.Parked += r.Parked
	}
	n := float64(len(runs))
	if n == 0 {
		return out
	}
	out.MeanTurnaround = turn.Value() / n
	out.P50Turnaround = p50.Value() / n
	out.P95Turnaround = p95.Value() / n
	out.P99Turnaround = p99.Value() / n
	out.Utilisation = util.Value() / n
	out.EmptyFraction = empty.Value() / n
	out.Throughput = tp.Value() / n
	out.MeanJobsInSystem = pop.Value() / n
	out.SLOAttainment = slo.Value() / n
	out.Availability = avail.Value() / n
	out.Goodput = good.Value() / n
	out.WastedWork = waste.Value() / n
	if len(runs) > 1 {
		for _, r := range runs {
			d := r.MeanTurnaround - out.MeanTurnaround
			turnSq.Add(d * d)
		}
		out.TurnaroundStd = math.Sqrt(turnSq.Value() / float64(len(runs)-1))
	}
	return out
}

// Replicate runs one replication of the farm configuration with the i-th
// seed derived from cfg.Seed — the unit of work grid sweeps fan out.
func Replicate(specs []ServerSpec, disp string, w workload.Workload, cfg Config, i int) (Replication, error) {
	return ReplicateSharded(specs, disp, w, cfg, ShardConfig{}, i)
}

// ReplicateSharded is Replicate with the ignored ShardConfig that
// SimulateSharded takes: the same dispatcher construction and
// per-replication seed derivation, run by SimulateSharded.
func ReplicateSharded(specs []ServerSpec, disp string, w workload.Workload, cfg Config, sc ShardConfig, i int) (Replication, error) {
	d, err := NewDispatcher(disp)
	if err != nil {
		return Replication{}, err
	}
	rcfg := cfg.withDefaults()
	rcfg.Seed = ReplicationSeed(rcfg.Seed, i)
	res, err := SimulateSharded(specs, d, w, rcfg, sc)
	if err != nil {
		return Replication{}, err
	}
	return Replication{Seed: rcfg.Seed, Result: res}, nil
}

// Sweep runs reps independent replications of the farm configuration
// (specs, dispatcher named disp, workload w, cfg with per-replication
// seeds derived from cfg.Seed) through the shared runner engine and
// aggregates them in index order.
func Sweep(ctx context.Context, rc runner.Config, specs []ServerSpec, disp string, w workload.Workload, cfg Config, reps int) (*SweepResult, error) {
	if reps <= 0 {
		reps = 1
	}
	runs, err := runner.Map(ctx, rc, reps, func(_ context.Context, i int) (Replication, error) {
		return Replicate(specs, disp, w, cfg, i)
	})
	if err != nil {
		return nil, err
	}
	return Aggregate(runs), nil
}
