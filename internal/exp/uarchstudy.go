package exp

import (
	"context"
	"fmt"
	"strings"

	"symbiosched/internal/core"
	"symbiosched/internal/perfdb"
	"symbiosched/internal/runner"
	"symbiosched/internal/uarch"
	"symbiosched/internal/workload"
)

// UarchPolicy is one of the four Section VII SMT policies.
type UarchPolicy struct {
	Fetch uarch.FetchPolicy
	ROB   uarch.ROBPolicy
}

// Name returns e.g. "ICOUNT/dynamic".
func (p UarchPolicy) Name() string { return fmt.Sprintf("%s/%s", p.Fetch, p.ROB) }

// UarchPolicies lists the four fetch × ROB-partitioning combinations.
var UarchPolicies = []UarchPolicy{
	{uarch.RoundRobin, uarch.StaticROB},
	{uarch.RoundRobin, uarch.DynamicROB},
	{uarch.ICOUNT, uarch.StaticROB},
	{uarch.ICOUNT, uarch.DynamicROB},
}

// UarchResult reproduces the Section VII microarchitecture study: optimal
// throughput as a metric for comparing SMT fetch/ROB policies without
// implementing a scheduler.
type UarchResult struct {
	// MeanFCFS and MeanOptimal are the mean throughputs per policy,
	// indexed like UarchPolicies.
	MeanFCFS, MeanOptimal []float64
	// BestPolicyFCFS/BestPolicyOptimal name the winners under each
	// scheduler assumption.
	BestPolicyFCFS, BestPolicyOptimal string
	// GainOverRRStaticFCFS/Optimal is ICOUNT+dynamic's mean gain over
	// RR+static (paper: +1.7% FCFS, +1.5% optimal).
	GainOverRRStaticFCFS, GainOverRRStaticOptimal float64
	// RankingChanged is the fraction of workloads whose best policy under
	// the optimal scheduler differs from the best under FCFS (paper: ~10%).
	RankingChanged float64
	// SchedulingGain is the mean optimal-vs-FCFS gain on the RR+static
	// baseline, which the paper contrasts with the policy gain (3.3% vs
	// 1.7%).
	SchedulingGain float64
	Workloads      int
}

// Uarch runs the study: 4 policies x all N=4 workloads, FCFS (Markov) and
// optimal throughput for each.
func Uarch(e *Env) (*UarchResult, error) {
	ws := workload.EnumerateWorkloads(len(e.Cfg.Suite), 4)
	np := len(UarchPolicies)
	res := &UarchResult{
		MeanFCFS:    make([]float64, np),
		MeanOptimal: make([]float64, np),
		Workloads:   len(ws),
	}
	// fcfs[p][w], opt[p][w]. Policies run one at a time — each item is
	// itself a perfdb build plus a suite sweep that parallelise
	// internally, so running the outer level sequentially keeps the total
	// worker count at the configured Parallelism bound.
	fcfs := make([][]float64, np)
	opt := make([][]float64, np)
	rc := e.runCfg("uarch")
	rc.Parallelism = 1
	err := runner.ForEach(context.Background(), rc, np, func(ctx context.Context, pi int) error {
		pol := UarchPolicies[pi]
		machine := uarch.DefaultSMT()
		machine.Fetch = pol.Fetch
		machine.ROB = pol.ROB
		table, err := perfdb.BuildWith(ctx, runner.Config{Parallelism: e.Cfg.Parallelism}, perfdb.SMTModel{Machine: machine}, e.Cfg.Suite)
		if err != nil {
			return err
		}
		sweep, err := core.AnalyzeSuite(table, 4, core.AnalyzeConfig{
			UseMarkovFCFS: true,
			Runner:        runner.Config{Parallelism: e.Cfg.Parallelism},
		})
		if err != nil {
			return err
		}
		fcfs[pi] = make([]float64, len(ws))
		opt[pi] = make([]float64, len(ws))
		for wi, a := range sweep.Workloads {
			fcfs[pi][wi] = a.FCFSTP
			opt[pi][wi] = a.OptimalTP
			res.MeanFCFS[pi] += a.FCFSTP / float64(len(ws))
			res.MeanOptimal[pi] += a.OptimalTP / float64(len(ws))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	bestIdx := func(means []float64) int {
		b := 0
		for i, v := range means {
			if v > means[b] {
				b = i
			}
		}
		return b
	}
	res.BestPolicyFCFS = UarchPolicies[bestIdx(res.MeanFCFS)].Name()
	res.BestPolicyOptimal = UarchPolicies[bestIdx(res.MeanOptimal)].Name()
	// RR+static is index 0; ICOUNT+dynamic is index 3.
	res.GainOverRRStaticFCFS = res.MeanFCFS[3]/res.MeanFCFS[0] - 1
	res.GainOverRRStaticOptimal = res.MeanOptimal[3]/res.MeanOptimal[0] - 1
	var changed int
	var schedGain float64
	for wi := range ws {
		bf, bo := 0, 0
		for pi := 0; pi < np; pi++ {
			if fcfs[pi][wi] > fcfs[bf][wi] {
				bf = pi
			}
			if opt[pi][wi] > opt[bo][wi] {
				bo = pi
			}
		}
		if bf != bo {
			changed++
		}
		schedGain += opt[0][wi]/fcfs[0][wi] - 1
	}
	res.RankingChanged = float64(changed) / float64(len(ws))
	res.SchedulingGain = schedGain / float64(len(ws))
	return res, nil
}

// Format renders the study.
func (r *UarchResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section VII: SMT fetch/ROB policy study with optimal throughput as the metric (%d workloads)\n", r.Workloads)
	fmt.Fprintf(&b, "  policy           FCFS TP   optimal TP\n")
	for i, p := range UarchPolicies {
		fmt.Fprintf(&b, "  %-15s  %7.3f   %7.3f\n", p.Name(), r.MeanFCFS[i], r.MeanOptimal[i])
	}
	fmt.Fprintf(&b, "  best policy: FCFS %s, optimal %s   [paper: ICOUNT/dynamic under both]\n", r.BestPolicyFCFS, r.BestPolicyOptimal)
	fmt.Fprintf(&b, "  ICOUNT/dynamic vs RR/static: FCFS %+.1f%%, optimal %+.1f%%   [paper: +1.7%% / +1.5%%]\n",
		100*r.GainOverRRStaticFCFS, 100*r.GainOverRRStaticOptimal)
	fmt.Fprintf(&b, "  workloads changing best policy under optimal scheduling: %.0f%%   [paper: ~10%%]\n", 100*r.RankingChanged)
	fmt.Fprintf(&b, "  scheduling gain on RR/static baseline: %+.1f%%   [paper: +3.3%%, vs +1.7%% from the policy]\n", 100*r.SchedulingGain)
	return b.String()
}
