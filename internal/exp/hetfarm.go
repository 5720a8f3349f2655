package exp

import (
	"fmt"
	"strings"

	"symbiosched/internal/farm"
	"symbiosched/internal/scenario"
)

// HetfarmScenario opens the heterogeneous-farm question the paper's
// framework invites but the per-figure drivers could not express: does
// symbiosis-aware dispatch buy more on a mixed SMT/quad-core farm — where
// routing decides which microarchitecture a job lands on, not just which
// queue — than on a uniform one? The grid sweeps machine mix x dispatcher
// x load, with common random numbers across dispatchers (the seed derives
// from the load and replication axes only), and reports each mix's
// dispatch policies side by side.
func HetfarmScenario() *scenario.Scenario {
	return gridScenario("hetfarm",
		"heterogeneous farm: uniform vs mixed SMT/quad under naive and symbiosis-aware dispatch",
		hetfarmPlan)
}

func hetfarmPlan(e *Env) (*scenario.Plan, error) {
	const servers = 4
	const reps = 3
	mixes := []string{"smt", "smt+quad"}
	dispatchers := farm.DispatcherNames
	loads := FarmLoads

	specs := make([][]farm.ServerSpec, len(mixes))
	caps := make([]float64, len(mixes))
	for mi := range mixes {
		sp, c, err := fcfsFarm(e, servers, mi == 1)
		if err != nil {
			return nil, err
		}
		specs[mi], caps[mi] = sp, c
	}

	axes := []scenario.Axis{
		{Name: "mix", Values: mixes},
		{Name: "dispatcher", Values: dispatchers},
		{Name: "load", Values: labels(loads, scenario.FormatFloat)},
	}
	run := func(pt scenario.Point) farmRun {
		mi := pt.Index("mix")
		// Loads are offered relative to each mix's own capacity, so the
		// two farms face the same relative pressure. The seed omits the
		// mix and dispatcher axes: every policy (on either farm) sees the
		// same arrival and job streams.
		cfg := e.farmConfig(loads[pt.Index("load")]*caps[mi], pt.Seed(e.Cfg.Seed, "load"))
		return farmRun{specs[mi], pt.Value("dispatcher"), cfg}
	}
	return replicated(e, "hetfarm", axes, reps, run, func(aggs []*farm.SweepResult) (*scenario.Result, error) {
		tbl := scenario.NewTable("hetfarm",
			str("mix"), str("dispatcher"), flt("load"),
			flt("mean_turnaround"), flt("p99_turnaround"),
			flt("turnaround_std"), flt("utilisation"), flt("throughput"))
		// lastLoadTurn[mix][disp] is the per-dispatcher mean
		// turnaround at the highest load; the summary lines below
		// print the li/jsq ratio from it.
		lastLoadTurn := map[string]map[string]float64{}
		ci := 0
		for _, mix := range mixes {
			lastLoadTurn[mix] = map[string]float64{}
			for _, disp := range dispatchers {
				for li, load := range loads {
					a := aggs[ci]
					ci++
					tbl.Add(mix, disp, load, a.MeanTurnaround, a.P99Turnaround,
						a.TurnaroundStd, a.Utilisation, a.Throughput)
					if li == len(loads)-1 {
						lastLoadTurn[mix][disp] = a.MeanTurnaround
					}
				}
			}
		}
		var b strings.Builder
		fmt.Fprintf(&b, "Heterogeneous farm (%d servers, FCFS per server, %d replications/cell): %s\n",
			servers, reps, "uniform SMT vs alternating SMT/quad, loads relative to each mix's capacity")
		fmt.Fprintf(&b, "  capacity: smt %.3f, smt+quad %.3f\n", caps[0], caps[1])
		b.WriteString(tbl.Text())
		for _, mix := range mixes {
			if li, jsq := lastLoadTurn[mix]["li"], lastLoadTurn[mix]["jsq"]; li > 0 && jsq > 0 {
				fmt.Fprintf(&b, "  %s: li mean turnaround at load %.2f is %.1f%% of jsq\n",
					mix, loads[len(loads)-1], 100*li/jsq)
			}
		}
		return &scenario.Result{Value: tbl, Text: b.String(), Tables: []*scenario.Table{tbl}}, nil
	}), nil
}
