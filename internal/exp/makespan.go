package exp

import (
	"context"
	"fmt"
	"strings"

	"symbiosched/internal/eventsim"
	"symbiosched/internal/runner"
	"symbiosched/internal/scenario"
	"symbiosched/internal/sched"
	"symbiosched/internal/stats"
	"symbiosched/internal/workload"
)

// MakespanResult is an extension experiment reproducing the related-work
// observation the paper quotes from Xu et al. (PACT 2010): "when jobs are
// SPEC benchmarks run to completion, a simple symbiosis-unaware long-job-
// first scheduler outperforms their symbiosis-aware scheduler" — because
// with small job sets (8-16 jobs) the idle tail dominates and makespan, not
// instantaneous symbiosis, is what matters.
type MakespanResult struct {
	Name      string
	Batch     int
	Workloads int
	// MeanMakespan maps scheduler name to its mean makespan normalised to
	// FCFS; MeanTailIdle to its mean tail-idle fraction.
	MeanMakespan map[string]float64
	MeanTailIdle map[string]float64
}

// MakespanSchedulers lists the compared schedulers.
var MakespanSchedulers = []string{"FCFS", "LJF", "SRPT", "MAXIT", "MAXTP", "Random"}

// MakespanExperiment runs small-batch makespan comparisons on the SMT
// configuration with heterogeneous (exponential) job sizes.
func MakespanExperiment(e *Env, batch int) (*MakespanResult, error) {
	if batch <= 0 {
		batch = 8
	}
	t := e.Table(SMT)
	ws := e.sampledWorkloads()
	r := &MakespanResult{
		Name: t.Name(), Batch: batch, Workloads: len(ws),
		MeanMakespan: map[string]float64{},
		MeanTailIdle: map[string]float64{},
	}
	n := float64(len(ws))
	type perWorkload struct {
		makespan, tailIdle []float64 // indexed like MakespanSchedulers
	}
	// Simulate workloads in parallel; fold the per-scheduler means in
	// workload order so the sums match the former sequential loop exactly.
	_, err := runner.Reduce(context.Background(), e.runCfg("makespan"), len(ws), r,
		func(_ context.Context, wi int) (perWorkload, error) {
			w := ws[wi]
			cfg := eventsim.MakespanConfig{Batch: batch, SizeShape: 1, Seed: e.Cfg.Seed + uint64(wi)}
			pw := perWorkload{
				makespan: make([]float64, len(MakespanSchedulers)),
				tailIdle: make([]float64, len(MakespanSchedulers)),
			}
			var base float64
			for si, name := range MakespanSchedulers {
				s, err := makespanScheduler(name, e, w)
				if err != nil {
					return perWorkload{}, err
				}
				res, err := eventsim.Makespan(t, w, s, cfg)
				if err != nil {
					return perWorkload{}, fmt.Errorf("workload %v %s: %w", w, name, err)
				}
				if name == "FCFS" {
					base = res.Makespan
				}
				pw.makespan[si] = res.Makespan / base
				pw.tailIdle[si] = res.TailIdleFraction
			}
			return pw, nil
		},
		func(r *MakespanResult, _ int, pw perWorkload) *MakespanResult {
			for si, name := range MakespanSchedulers {
				r.MeanMakespan[name] += pw.makespan[si] / n
				r.MeanTailIdle[name] += pw.tailIdle[si] / n
			}
			return r
		})
	if err != nil {
		return nil, err
	}
	return r, nil
}

func makespanScheduler(name string, e *Env, w workload.Workload) (sched.Scheduler, error) {
	if name == "LJF" {
		return sched.LJF{}, nil
	}
	if name == "Random" {
		return &sched.Random{RNG: stats.NewRNG(e.Cfg.Seed)}, nil
	}
	return sched.New(name, e.Table(SMT), w)
}

// table lists each scheduler's normalised makespan and tail idle.
func (r *MakespanResult) table(name string) *scenario.Table {
	t := scenario.NewTable(name, str("scheduler"), flt("makespan_vs_fcfs"), flt("tail_idle"))
	for _, sn := range MakespanSchedulers {
		t.Add(sn, r.MeanMakespan[sn], r.MeanTailIdle[sn])
	}
	return t
}

// Format renders the comparison.
func (r *MakespanResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Makespan extension (%s, %d-job batches, %d workloads): small-set evaluation a la Settle/Xu\n",
		r.Name, r.Batch, r.Workloads)
	fmt.Fprintf(&b, "  %-8s %18s %14s\n", "sched", "makespan vs FCFS", "tail idle")
	for _, name := range MakespanSchedulers {
		fmt.Fprintf(&b, "  %-8s %17.3f %13.1f%%\n", name, r.MeanMakespan[name], 100*r.MeanTailIdle[name])
	}
	fmt.Fprintf(&b, "  [paper Section II: with small job sets the idle tail dominates; symbiosis-unaware LJF\n")
	fmt.Fprintf(&b, "   outperforms symbiosis-aware scheduling (Xu et al.)]\n")
	return b.String()
}
