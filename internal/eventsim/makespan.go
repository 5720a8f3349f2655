package eventsim

import (
	"fmt"
	"math"
	"slices"

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
	rng := stats.NewRNG(cfg.Seed)
	observer, _ := s.(sched.Observer)
	system := make([]*sched.Job, cfg.Batch)
	for i := range system {
		size := cfg.JobSize
		if cfg.SizeShape >= 1 {
			size = 0
			for j := 0; j < cfg.SizeShape; j++ {
				size += rng.Exp(float64(cfg.SizeShape) / cfg.JobSize)
			}
		}
		system[i] = &sched.Job{ID: i, Type: w[rng.Intn(len(w))], Size: size, Remaining: size}
	}

	var now, turnaround, idleTail float64
	for len(system) > 0 {
		running := s.Select(system, k)
		if len(running) == 0 || len(running) > k {
			return nil, fmt.Errorf("eventsim: scheduler %s selected %d jobs", s.Name(), len(running))
		}
		cos := make(workload.Coschedule, len(running))
		for i, ji := range running {
			cos[i] = system[ji].Type
		}
		canon := workload.NewCoschedule(cos...)
		dt := math.Inf(1)
		for _, ji := range running {
			j := system[ji]
			if d := j.Remaining / t.JobWIPC(canon, j.Type); d < dt {
				dt = d
			}
		}
		now += dt
		idleTail += float64(k-len(running)) * dt
		for _, ji := range running {
			j := system[ji]
			j.Remaining -= t.JobWIPC(canon, j.Type) * dt
		}
		if observer != nil {
			observer.Observe(canon, dt)
		}
		// Only running jobs complete: a waiting job holds its work,
		// however little, until it runs.
		kept := 0
		for i, j := range system {
			if j.Remaining <= eps && slices.Contains(running, i) {
				turnaround += now
				continue
			}
			system[kept] = j
			kept++
		}
		system = system[:kept]
	}
	return &MakespanResult{
		Makespan:         now,
		MeanTurnaround:   turnaround / float64(cfg.Batch),
		TailIdleFraction: idleTail / (now * float64(k)),
	}, nil
}
