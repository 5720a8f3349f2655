package exp

import (
	"fmt"
	"strings"

	"symbiosched/internal/core"
	"symbiosched/internal/scenario"
)

// Table2Result reproduces Table II: instantaneous throughput and scheduler
// time fractions grouped by coschedule heterogeneity, for one
// configuration.
type Table2Result struct {
	Name string
	Rows []core.HeteroClass
	// TheoreticalFCFS is the random-draw heterogeneity distribution the
	// paper quotes (2%, 33%, 56%, 9% for N=K=4).
	TheoreticalFCFS []float64
}

// Table2 computes the heterogeneity tables for both configurations.
func Table2(e *Env) (smt, quad *Table2Result, err error) {
	theo := core.TheoreticalFCFSHeteroFractions(4, e.Table(SMT).K())
	return perMachine(e, func(m Machine, sa *core.SuiteAnalysis) *Table2Result {
		return &Table2Result{
			Name:            e.Table(m).Name(),
			Rows:            core.HeterogeneityTable(e.Table(m), sa.Workloads),
			TheoreticalFCFS: theo,
		}
	})
}

// table lists the heterogeneity classes.
func (r *Table2Result) table(name string) *scenario.Table {
	t := scenario.NewTable(name, intc("heterogeneity"),
		flt("avg_inst_tp"), flt("fcfs"), flt("optimal"), flt("worst"), flt("theoretical_fcfs"))
	for i, row := range r.Rows {
		t.Add(row.Heterogeneity, row.AvgInstTP, row.FCFS, row.Optimal, row.Worst, r.TheoreticalFCFS[i])
	}
	return t
}

// Format renders the table with the paper's values quoted.
func (r *Table2Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II (%s): per heterogeneity class\n", r.Name)
	fmt.Fprintf(&b, "  het  avgInstTP  FCFS    optimal  worst    theoretical-FCFS\n")
	for i, row := range r.Rows {
		fmt.Fprintf(&b, "  %d    %8.2f  %5.1f%%  %6.1f%%  %5.1f%%   %5.1f%%\n",
			row.Heterogeneity, row.AvgInstTP, 100*row.FCFS, 100*row.Optimal, 100*row.Worst,
			100*r.TheoreticalFCFS[i])
	}
	fmt.Fprintf(&b, "  [paper SMT: instTP 1.74/1.83/1.91/1.97; FCFS 3/38/52/7; optimal 1/38/50/11; worst 80/20/0/0]\n")
	fmt.Fprintf(&b, "  [paper quad: instTP 3.36/3.40/3.46/3.53; FCFS 2/34/55/9; optimal 1/10/17/72; worst 65/35/0/0]\n")
	return b.String()
}
