package exp

import (
	"fmt"
	"strings"

	"symbiosched/internal/farm"
	"symbiosched/internal/scenario"
)

// burstPatterns are the arrival-rate shapes of the burst scenario. All
// patterns offer the same mean load; a factor-f burst concentrates it
// into on-phases of rate f times the mean covering 1/f of each cycle,
// with silence in between.
var burstPatterns = []struct {
	Name   string
	Factor float64
}{
	{"steady", 1},
	{"burst2", 2},
	{"burst4", 4},
}

// burstCycle is the schedule period in simulated time units — long
// enough that an on-phase spans many job services, so bursts build real
// queues rather than averaging out.
const burstCycle = 40.0

// burstLoad is the mean offered load relative to farm capacity.
const burstLoad = 0.7

// BurstScenario opens the time-varying-load question: how much do bursty
// arrivals — the same mean load concentrated into on/off cycles — inflate
// mean and tail turnaround, and does symbiosis-aware dispatch (li) retain
// its edge over queue-length dispatch (jsq) under them? It exercises the
// farm.Config.Schedule rate schedule threaded through the arrival loop.
func BurstScenario() *scenario.Scenario {
	return gridScenario("burst",
		"time-varying load: on/off arrival bursts at equal mean load, jsq vs li dispatch",
		burstPlan)
}

func burstPlan(e *Env) (*scenario.Plan, error) {
	const servers = 4
	const reps = 3
	dispatchers := []string{"jsq", "li"}
	specs, capacity, err := fcfsFarm(e, servers, false)
	if err != nil {
		return nil, err
	}
	lambda := burstLoad * capacity
	patternNames := make([]string, len(burstPatterns))
	for i, p := range burstPatterns {
		patternNames[i] = p.Name
	}

	axes := []scenario.Axis{
		{Name: "pattern", Values: patternNames},
		{Name: "dispatcher", Values: dispatchers},
	}
	run := func(pt scenario.Point) farmRun {
		pat := burstPatterns[pt.Index("pattern")]
		// The base seed carries no axis at all — Replicate derives the
		// per-replication stream from the rep index — so every
		// (pattern, dispatcher) cell of a replication draws from the same
		// streams and pattern effects are paired, not confounded with
		// noise.
		cfg := e.farmConfig(lambda, e.Cfg.Seed)
		if pat.Factor > 1 {
			on := burstCycle / pat.Factor
			cfg.Schedule = []farm.Phase{
				{Duration: on, Rate: pat.Factor * lambda},
				{Duration: burstCycle - on, Rate: 0},
			}
		}
		return farmRun{specs, pt.Value("dispatcher"), cfg}
	}
	return replicated(e, "burst", axes, reps, run, func(aggs []*farm.SweepResult) (*scenario.Result, error) {
		tbl := scenario.NewTable("burst",
			str("pattern"), str("dispatcher"),
			flt("mean_turnaround"), flt("p50_turnaround"),
			flt("p99_turnaround"), flt("turnaround_std"),
			flt("utilisation"))
		p99 := map[string]map[string]float64{}
		ci := 0
		for _, pat := range burstPatterns {
			p99[pat.Name] = map[string]float64{}
			for _, disp := range dispatchers {
				a := aggs[ci]
				ci++
				tbl.Add(pat.Name, disp, a.MeanTurnaround, a.P50Turnaround,
					a.P99Turnaround, a.TurnaroundStd, a.Utilisation)
				p99[pat.Name][disp] = a.P99Turnaround
			}
		}
		var b strings.Builder
		fmt.Fprintf(&b, "Bursty arrivals (%d SMT servers, FCFS per server, mean load %.2f, cycle %g, %d replications/cell)\n",
			servers, burstLoad, burstCycle, reps)
		b.WriteString(tbl.Text())
		for _, disp := range dispatchers {
			if base := p99["steady"][disp]; base > 0 {
				fmt.Fprintf(&b, "  %s: p99 turnaround inflates %.1fx under burst2, %.1fx under burst4\n",
					disp, p99["burst2"][disp]/base, p99["burst4"][disp]/base)
			}
		}
		return &scenario.Result{Value: tbl, Text: b.String(), Tables: []*scenario.Table{tbl}}, nil
	}), nil
}
