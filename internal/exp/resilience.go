package exp

import (
	"context"
	"fmt"
	"strings"

	"symbiosched/internal/farm"
	"symbiosched/internal/fault"
	"symbiosched/internal/scenario"
)

// ResilienceScenario is the fault-injection study: an 8-server FCFS farm
// on the farm's event engine at fixed load, swept over a failure-rate
// grid (MTBF), the dispatch policies that matter under degradation (li,
// pd2, jsq) and both checkpoint policies. Seeds derive from the MTBF axis
// only, so every (dispatcher, checkpoint) pair competes under common
// random numbers — the same arrivals AND the same failure/repair
// trajectory (fault streams are per server index, shape-independent).
// The headline is the cost of crashes: availability, goodput vs wasted
// work, re-dispatch pressure and the turnaround tail, and how the
// symbiosis-aware dispatchers hold up as servers blink in and out of
// the up-set.
func ResilienceScenario() *scenario.Scenario {
	return gridScenario("resilience",
		"fault injection: MTBF grid x dispatcher x checkpoint, availability and goodput",
		resiliencePlan)
}

func resiliencePlan(e *Env) (*scenario.Plan, error) {
	mtbfs := []float64{25, 100, 400}
	dispatchers := []string{"li", "pd2", "jsq"}
	checkpoints := []string{string(fault.Restart), string(fault.Resume)}
	const (
		load       = 0.8
		mttr       = 2.5
		maxRetries = 5
		retryDelay = 0.5
	)
	w := farmWorkload(e)
	specs, capacity, err := fcfsFarm(e, 8, false)
	if err != nil {
		return nil, err
	}

	return &scenario.Plan{
		Axes: []scenario.Axis{
			{Name: "mtbf", Values: labels(mtbfs, scenario.FormatFloat)},
			{Name: "dispatcher", Values: dispatchers},
			{Name: "checkpoint", Values: checkpoints},
		},
		Cell: func(_ context.Context, pt scenario.Point) (any, error) {
			mtbf := mtbfs[pt.Index("mtbf")]
			disp := dispatchers[pt.Index("dispatcher")]
			cp := fault.Policy(checkpoints[pt.Index("checkpoint")])
			d, err := farm.NewDispatcher(disp)
			if err != nil {
				return nil, err
			}
			cfg := e.farmConfig(load*capacity, pt.Seed(e.Cfg.Seed, "mtbf"))
			cfg.Faults = fault.Config{
				MTBF:       mtbf,
				MTTR:       mttr,
				MaxRetries: maxRetries,
				RetryDelay: retryDelay,
				Checkpoint: cp,
			}
			res, err := farm.SimulateSharded(specs, d, w, cfg, farm.ShardConfig{})
			if err != nil {
				return nil, fmt.Errorf("resilience mtbf=%g %s/%s: %w", mtbf, disp, cp, err)
			}
			return res, nil
		},
		Reduce: func(cells []any) (*scenario.Result, error) {
			tbl := scenario.NewTable("resilience",
				flt("mtbf"), str("dispatcher"), str("checkpoint"),
				flt("availability"), flt("goodput"), flt("wasted_work"),
				intc("redispatches"), intc("dropped"), intc("parked"),
				flt("mean_turnaround"), flt("p99_turnaround"),
				flt("retry_p50"), flt("retry_p99"))
			// wasted/turn[mtbf index][checkpoint index] under li, for the
			// checkpoint-policy payoff lines below.
			wasted := make([][]float64, len(mtbfs))
			turn := make([][]float64, len(mtbfs))
			for i := range wasted {
				wasted[i] = make([]float64, len(checkpoints))
				turn[i] = make([]float64, len(checkpoints))
			}
			var availMin, availMax float64 = 1, 0
			ci := 0
			for mi, mtbf := range mtbfs {
				for _, disp := range dispatchers {
					for cpi, cp := range checkpoints {
						r := cells[ci].(*farm.Result)
						ci++
						tbl.Add(mtbf, disp, cp, r.Availability, r.Goodput, r.WastedWork,
							r.Redispatches, r.Dropped, r.Parked,
							r.MeanTurnaround, r.P99Turnaround, r.RetryP50, r.RetryP99)
						if disp == "li" {
							wasted[mi][cpi] = r.WastedWork
							turn[mi][cpi] = r.MeanTurnaround
						}
						if r.Availability < availMin {
							availMin = r.Availability
						}
						if r.Availability > availMax {
							availMax = r.Availability
						}
					}
				}
			}
			var b strings.Builder
			fmt.Fprintf(&b, "Resilience (8 x smt/FCFS, load %.2f, MTTR %g, %d retries, backoff %g, %d jobs/cell)\n",
				load, mttr, maxRetries, retryDelay, e.Cfg.SimJobs)
			fmt.Fprintf(&b, "  capacity: %.3f\n", capacity)
			b.WriteString(tbl.Text())
			fmt.Fprintf(&b, "  availability spans %.4f (MTBF %g) to %.4f (MTBF %g)\n",
				availMin, mtbfs[0], availMax, mtbfs[len(mtbfs)-1])
			for mi, mtbf := range mtbfs {
				if wasted[mi][0] > 0 && turn[mi][1] > 0 {
					// Job sizes have mean 1, so SimJobs ~= the useful work.
					fmt.Fprintf(&b, "  MTBF %g under li: restart re-executes %.1f%% of the useful work; resume cuts mean turnaround %.1f%%\n",
						mtbf, 100*wasted[mi][0]/float64(e.Cfg.SimJobs), 100*(1-turn[mi][1]/turn[mi][0]))
				}
			}
			return &scenario.Result{Value: tbl, Text: b.String(), Tables: []*scenario.Table{tbl}}, nil
		},
	}, nil
}
