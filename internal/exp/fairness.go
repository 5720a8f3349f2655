package exp

import (
	"context"
	"fmt"
	"strings"

	"symbiosched/internal/core"
	"symbiosched/internal/runner"
)

// FairnessResult reproduces the Section V-D counterfactual: equalising the
// per-job rates inside each workload's fully heterogeneous coschedule
// (keeping its instantaneous throughput) lets the optimal scheduler select
// it most of the time and raises optimal throughput substantially, while
// FCFS and worst remain (nearly) unchanged.
type FairnessResult struct {
	Name      string
	Workloads int
	// Mean throughput changes after equalisation.
	OptGain, FCFSChange, WorstChange float64
	// HeteroFractionBefore/After is the mean time fraction the optimal
	// scheduler gives the heterogeneous coschedule.
	HeteroFractionBefore, HeteroFractionAfter float64
}

// Fairness runs the counterfactual over the (sampled) N=4 workloads on the
// SMT configuration.
func Fairness(e *Env) (*FairnessResult, error) {
	t := e.Table(SMT)
	ws := e.sampledWorkloads()
	n := float64(len(ws))
	// One counterfactual per workload in parallel; the means fold in
	// workload order, exactly as the former sequential loop summed them.
	r, err := runner.Reduce(context.Background(), e.runCfg("fairness"), len(ws),
		&FairnessResult{Name: t.Name(), Workloads: len(ws)},
		func(_ context.Context, wi int) (*core.FairnessOutcome, error) {
			out, err := core.FairnessExperiment(t, ws[wi], core.FCFSConfig{
				Jobs: e.Cfg.FCFSJobs,
				Seed: e.Cfg.Seed + uint64(wi),
			})
			if err != nil {
				return nil, fmt.Errorf("workload %v: %w", ws[wi], err)
			}
			return out, nil
		},
		func(r *FairnessResult, _ int, out *core.FairnessOutcome) *FairnessResult {
			r.OptGain += (out.EqualizedOpt/out.BaselineOpt - 1) / n
			r.FCFSChange += (out.EqualizedFCFS/out.BaselineFCFS - 1) / n
			r.WorstChange += (out.EqualizedWorst/out.BaselineWorst - 1) / n
			r.HeteroFractionBefore += out.HeteroFractionBefore / n
			r.HeteroFractionAfter += out.HeteroFractionAfter / n
			return r
		})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Format renders the counterfactual outcome.
func (r *FairnessResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section V-D fairness counterfactual (%s, %d workloads):\n", r.Name, r.Workloads)
	fmt.Fprintf(&b, "  equalising rates in the fully heterogeneous coschedule (same inst. TP):\n")
	fmt.Fprintf(&b, "  optimal TP %+.1f%%, FCFS %+.1f%%, worst %+.1f%%   [paper: optimal up substantially, FCFS/worst unchanged]\n",
		100*r.OptGain, 100*r.FCFSChange, 100*r.WorstChange)
	fmt.Fprintf(&b, "  optimal scheduler's time in the heterogeneous coschedule: %.0f%% -> %.0f%%   [paper: \"most of the time\" after]\n",
		100*r.HeteroFractionBefore, 100*r.HeteroFractionAfter)
	return b.String()
}
