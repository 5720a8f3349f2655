package exp

import (
	"fmt"
	"strings"

	"symbiosched/internal/core"
	"symbiosched/internal/scenario"
)

// Fig1Result reproduces Figure 1: the variation of per-job IPC,
// per-coschedule instantaneous throughput and scheduler average throughput
// for both configurations, N = 4 job types.
type Fig1Result struct {
	SMT, Quad ConfigVariability
}

// ConfigVariability is one configuration's three bars.
type ConfigVariability struct {
	Name   string
	JobIPC core.SpreadStats // zero line: per-workload average job IPC
	InstTP core.SpreadStats // zero line: per-workload average it(s)
	AvgTP  core.SpreadStats // zero line: FCFS average throughput
}

// Fig1 runs (or reuses) the N=4 suite sweeps on both configurations.
func Fig1(e *Env) (*Fig1Result, error) {
	smt, quad, err := perMachine(e, func(m Machine, sa *core.SuiteAnalysis) ConfigVariability {
		return ConfigVariability{Name: e.Table(m).Name(), JobIPC: sa.JobIPC, InstTP: sa.InstTP, AvgTP: sa.AvgTP}
	})
	if err != nil {
		return nil, err
	}
	return &Fig1Result{SMT: smt, Quad: quad}, nil
}

// table lists the three bars of both configurations.
func (r *Fig1Result) table(name string) *scenario.Table {
	t := scenario.NewTable(name, str("config"), str("metric"),
		flt("avg_best"), flt("avg_worst"), flt("max_best"), flt("min_worst"), flt("variability"))
	for _, cv := range []ConfigVariability{r.SMT, r.Quad} {
		for _, m := range []struct {
			name string
			s    core.SpreadStats
		}{{"job_ipc", cv.JobIPC}, {"inst_tp", cv.InstTP}, {"avg_tp", cv.AvgTP}} {
			t.Add(cv.Name, m.name, m.s.AvgBest, m.s.AvgWorst, m.s.MaxBest, m.s.MinWorst, m.s.Variability())
		}
	}
	return t
}

// Format renders the figure's bars as text, with the paper's values quoted.
func (r *Fig1Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: variability of per-job IPC, instantaneous TP and average TP (N=4)\n")
	row := func(label string, s core.SpreadStats, paper string) {
		fmt.Fprintf(&b, "  %-16s avg %+6.1f%% / %+6.1f%%   extremes %+6.1f%% / %+6.1f%%   variability %5.1f%%   [paper: %s]\n",
			label, 100*s.AvgBest, 100*s.AvgWorst, 100*s.MaxBest, 100*s.MinWorst, 100*s.Variability(), paper)
	}
	fmt.Fprintf(&b, "%s\n", r.SMT.Name)
	row("per-job IPC", r.SMT.JobIPC, "+23/-14, +108/-40, var 37%")
	row("instantaneous TP", r.SMT.InstTP, "+35/-35, +69/-56, var 69%")
	row("average TP", r.SMT.AvgTP, "opt +3 (max +12), worst -9 (min -18), var 12%")
	fmt.Fprintf(&b, "%s\n", r.Quad.Name)
	row("per-job IPC", r.Quad.JobIPC, "var 35%")
	row("instantaneous TP", r.Quad.InstTP, "var 48%")
	row("average TP", r.Quad.AvgTP, "opt +6%")
	return b.String()
}
