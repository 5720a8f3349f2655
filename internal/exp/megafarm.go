package exp

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"symbiosched/internal/farm"
	"symbiosched/internal/scenario"
)

// MegafarmScenario exercises the regime a lockstep farm loop cannot
// reach: farms large enough that probing every server per arrival (li,
// jsq) is off the table and an O(N)-per-event lockstep advance would
// dominate the wall clock. Every cell runs on the farm's event engine
// (farm.SimulateSharded) under power-of-d-choices dispatch, sweeping farm
// size x probe count x load. The d axis is the supermarket-model story at
// farm scale: d = 1 is random splitting, d = 2 already buys most of the
// queue-length collapse, larger d closes in on full information at fixed
// O(d) probe cost. Seeds derive from the servers and load axes only, so
// every d competes under common random numbers.
func MegafarmScenario() *scenario.Scenario {
	return gridScenario("megafarm",
		"mega-farm: power-of-d dispatch, servers x d x load",
		megafarmPlan)
}

func megafarmPlan(e *Env) (*scenario.Plan, error) {
	sizes := []int{64, 256}
	ds := []int{1, 2, 4}
	loads := []float64{0.7, 0.9}
	w := farmWorkload(e)

	specs := make([][]farm.ServerSpec, len(sizes))
	caps := make([]float64, len(sizes))
	for si, n := range sizes {
		sp, c, err := fcfsFarm(e, n, false)
		if err != nil {
			return nil, err
		}
		specs[si], caps[si] = sp, c
	}

	return &scenario.Plan{
		Axes: []scenario.Axis{
			{Name: "servers", Values: labels(sizes, strconv.Itoa)},
			{Name: "d", Values: labels(ds, strconv.Itoa)},
			{Name: "load", Values: labels(loads, scenario.FormatFloat)},
		},
		Cell: func(_ context.Context, pt scenario.Point) (any, error) {
			si := pt.Index("servers")
			d := ds[pt.Index("d")]
			load := loads[pt.Index("load")]
			disp, err := farm.NewDispatcher("pd" + strconv.Itoa(d))
			if err != nil {
				return nil, err
			}
			cfg := e.farmConfig(load*caps[si], pt.Seed(e.Cfg.Seed, "servers", "load"))
			res, err := farm.SimulateSharded(specs[si], disp, w, cfg, farm.ShardConfig{})
			if err != nil {
				return nil, fmt.Errorf("megafarm n=%d pd%d load %.2f: %w", sizes[si], d, load, err)
			}
			return res, nil
		},
		Reduce: func(cells []any) (*scenario.Result, error) {
			tbl := scenario.NewTable("megafarm",
				intc("servers"), intc("d"), flt("load"),
				flt("mean_turnaround"), flt("p99_turnaround"),
				flt("utilisation"), flt("throughput"),
				flt("mean_jobs_in_system"))
			// turn[si][d index] is the mean turnaround at the highest load,
			// for the probe-count payoff lines below.
			turn := make([][]float64, len(sizes))
			ci := 0
			for si, n := range sizes {
				turn[si] = make([]float64, len(ds))
				for di := range ds {
					for li, load := range loads {
						r := cells[ci].(*farm.Result)
						ci++
						tbl.Add(n, ds[di], load, r.MeanTurnaround, r.P99Turnaround,
							r.Utilisation, r.Throughput, r.MeanJobsInSystem)
						if li == len(loads)-1 {
							turn[si][di] = r.MeanTurnaround
						}
					}
				}
			}
			var b strings.Builder
			fmt.Fprintf(&b, "Mega-farm (FCFS servers, pd dispatch, %d jobs/cell)\n", e.Cfg.SimJobs)
			for si, n := range sizes {
				fmt.Fprintf(&b, "  capacity n=%d: %.3f\n", n, caps[si])
			}
			b.WriteString(tbl.Text())
			for si, n := range sizes {
				if turn[si][0] > 0 {
					fmt.Fprintf(&b, "  n=%d at load %.2f: pd2 mean turnaround is %.1f%% of pd1, pd4 is %.1f%%\n",
						n, loads[len(loads)-1], 100*turn[si][1]/turn[si][0], 100*turn[si][2]/turn[si][0])
				}
			}
			return &scenario.Result{Value: tbl, Text: b.String(), Tables: []*scenario.Table{tbl}}, nil
		},
	}, nil
}
