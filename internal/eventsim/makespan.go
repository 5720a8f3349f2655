package eventsim

import (
	"fmt"

	"symbiosched/internal/perfdb"
	"symbiosched/internal/sched"
	"symbiosched/internal/stats"
	"symbiosched/internal/workload"
)

// MakespanConfig parameterises a small-set makespan experiment: a fixed
// batch of jobs, all present at t = 0, run to completion — the evaluation
// style of Settle et al. and Xu et al. that the paper's related-work
// section discusses ("with such small workloads, the effect of idling
// cores cannot be neglected").
type MakespanConfig struct {
	// Batch is the number of jobs (default 2 * K, e.g. the paper cites
	// sets of 8-16 jobs).
	Batch int
	// JobSize is the mean work per job (default 1) and SizeShape its
	// distribution as in LatencyConfig.
	JobSize   float64
	SizeShape int
	// Seed drives job types and sizes (default 1).
	Seed uint64
}

// MakespanResult reports a batch run.
type MakespanResult struct {
	// Makespan is the completion time of the last job.
	Makespan float64
	// MeanTurnaround is the mean completion time (all arrivals at 0).
	MeanTurnaround float64
	// TailIdleFraction is the fraction of context-cycles idled after the
	// system drops below K jobs — the small-set effect the paper points
	// at.
	TailIdleFraction float64
}

// Makespan runs a batch of cfg.Batch jobs of uniformly random types from w
// under scheduler s, to completion, and reports the makespan.
func Makespan(t *perfdb.Table, w workload.Workload, s sched.Scheduler, cfg MakespanConfig) (*MakespanResult, error) {
	if err := CheckJobSizes(cfg.JobSize, cfg.SizeShape); err != nil {
		return nil, fmt.Errorf("eventsim: %w", err)
	}
	k := t.K()
	if cfg.Batch <= 0 {
		cfg.Batch = 2 * k
	}
	if cfg.JobSize <= 0 {
		cfg.JobSize = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	// One server runs the batch: Reschedule, TimeToNextCompletion and
	// Advance are the physics every event loop in this package shares.
	rng := stats.NewRNG(cfg.Seed)
	sv := NewServer(t, s)
	for i := 0; i < cfg.Batch; i++ {
		size := cfg.JobSize
		if cfg.SizeShape >= 1 {
			size = 0
			for j := 0; j < cfg.SizeShape; j++ {
				size += rng.Exp(float64(cfg.SizeShape) / cfg.JobSize)
			}
		}
		sv.Add(&sched.Job{ID: i, Type: w[rng.Intn(len(w))], Size: size, Remaining: size})
	}

	var now, turnaround, idleTail float64
	var done []*sched.Job
	for sv.JobsInSystem() > 0 {
		if err := sv.Reschedule(); err != nil {
			return nil, err
		}
		dt := sv.TimeToNextCompletion()
		now += dt
		idleTail += float64(k-len(sv.Running())) * dt
		done = sv.Advance(dt, done[:0])
		for range done {
			turnaround += now
		}
	}
	return &MakespanResult{
		Makespan:         now,
		MeanTurnaround:   turnaround / float64(cfg.Batch),
		TailIdleFraction: idleTail / (now * float64(k)),
	}, nil
}
