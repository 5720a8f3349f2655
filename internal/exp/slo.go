package exp

import (
	"fmt"
	"strings"

	"symbiosched/internal/farm"
	"symbiosched/internal/scenario"
)

// sloLoads is the load sweep of the SLO scenario — finer than the farm
// grid's three points, because attainment curves bend sharply near
// saturation.
var sloLoads = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95}

// sloTarget is the turnaround objective in simulated time units (job
// sizes average one unit of work, so this is roughly five solo service
// times).
const sloTarget = 5.0

// SLOScenario is the tail-latency view the paper's turnaround plots
// stop short of: for each dispatcher, how do the P50/P95/P99 turnaround
// quantiles — and the fraction of jobs meeting a fixed turnaround SLO —
// degrade as load approaches saturation? Common random numbers across
// dispatchers (the seed derives from load and replication only) make the
// per-load comparison paired.
func SLOScenario() *scenario.Scenario {
	return gridScenario("slo",
		"tail latency: turnaround quantiles and SLO attainment vs load, jsq vs li dispatch",
		sloPlan)
}

func sloPlan(e *Env) (*scenario.Plan, error) {
	const servers = 4
	const reps = 3
	dispatchers := []string{"jsq", "li"}
	specs, capacity, err := fcfsFarm(e, servers, false)
	if err != nil {
		return nil, err
	}

	axes := []scenario.Axis{
		{Name: "dispatcher", Values: dispatchers},
		{Name: "load", Values: labels(sloLoads, scenario.FormatFloat)},
	}
	run := func(pt scenario.Point) farmRun {
		cfg := e.farmConfig(sloLoads[pt.Index("load")]*capacity, pt.Seed(e.Cfg.Seed, "load"))
		cfg.SLO = sloTarget
		return farmRun{specs, pt.Value("dispatcher"), cfg}
	}
	return replicated(e, "slo", axes, reps, run, func(aggs []*farm.SweepResult) (*scenario.Result, error) {
		tbl := scenario.NewTable("slo",
			str("dispatcher"), flt("load"),
			flt("mean_turnaround"), flt("p50_turnaround"),
			flt("p95_turnaround"), flt("p99_turnaround"),
			flt("slo_attainment"))
		// attainedTo[disp] is the highest load of the unbroken
		// ascending prefix holding attainment at or above 95% — a dip
		// at a lower load ends the held range even if a later load
		// recovers.
		attainedTo := map[string]float64{}
		ci := 0
		for _, disp := range dispatchers {
			holding := true
			for _, load := range sloLoads {
				a := aggs[ci]
				ci++
				tbl.Add(disp, load, a.MeanTurnaround, a.P50Turnaround,
					a.P95Turnaround, a.P99Turnaround, a.SLOAttainment)
				if holding && a.SLOAttainment >= 0.95 {
					attainedTo[disp] = load
				} else {
					holding = false
				}
			}
		}
		var b strings.Builder
		fmt.Fprintf(&b, "Tail-latency SLO (%d SMT servers, FCFS per server, objective: turnaround <= %g, %d replications/cell)\n",
			servers, sloTarget, reps)
		b.WriteString(tbl.Text())
		for _, disp := range dispatchers {
			if l, ok := attainedTo[disp]; ok {
				fmt.Fprintf(&b, "  %s: holds 95%% attainment up to load %.2f\n", disp, l)
			} else {
				fmt.Fprintf(&b, "  %s: never reaches 95%% attainment on this grid\n", disp)
			}
		}
		return &scenario.Result{Value: tbl, Text: b.String(), Tables: []*scenario.Table{tbl}}, nil
	}), nil
}
