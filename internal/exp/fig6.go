package exp

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"symbiosched/internal/core"
	"symbiosched/internal/eventsim"
	"symbiosched/internal/scenario"
	"symbiosched/internal/sched"
	"symbiosched/internal/workload"
)

// Fig6Point is one workload in Figure 6: the throughput each online
// scheduler achieves in a maximum-throughput experiment, relative to FCFS,
// together with the theoretical LP bounds.
type Fig6Point struct {
	Workload string
	// TheoreticalMax/Min are the LP bounds relative to FCFS.
	TheoreticalMax, TheoreticalMin float64
	// MAXIT, SRPT and MAXTP are achieved throughputs relative to FCFS.
	MAXIT, SRPT, MAXTP float64
}

// Fig6Result reproduces Figure 6 on the SMT configuration.
type Fig6Result struct {
	Name   string
	Points []Fig6Point // ordered by increasing theoretical max
	// Means over workloads (paper: SRPT ~ FCFS, MAXIT slightly below,
	// MAXTP ~ theoretical max).
	MeanMAXIT, MeanSRPT, MeanMAXTP, MeanTheoreticalMax, MeanTheoreticalMin float64
	// MAXTPGapToOptimal is the mean of (optimal - MAXTP)/optimal; the
	// paper finds MAXTP "almost exactly matches" the LP optimum.
	MAXTPGapToOptimal float64
}

// fig6Plan lays Figure 6 out on the scenario engine: one cell per sampled
// workload (LP bounds plus one max-throughput simulation per scheduler),
// reduced in workload order into the sorted point list and its means.
func fig6Plan(e *Env) (*scenario.Plan, error) {
	t := e.Table(SMT)
	ws := e.sampledWorkloads()
	return &scenario.Plan{
		Axes: []scenario.Axis{{Name: "workload", Values: labels(ws, workload.Workload.Key)}},
		Cell: func(_ context.Context, pt scenario.Point) (any, error) {
			wi := pt.Index("workload")
			w := ws[wi]
			opt, err := core.Optimal(t, w)
			if err != nil {
				return nil, fmt.Errorf("workload %v: %w", w, err)
			}
			worst, err := core.Worst(t, w)
			if err != nil {
				return nil, fmt.Errorf("workload %v: %w", w, err)
			}
			cfg := eventsim.MaxThroughputConfig{Jobs: e.Cfg.SimJobs, Seed: e.Cfg.Seed + uint64(wi)}
			tps := map[string]float64{}
			for _, name := range sched.Names {
				s, err := sched.New(name, t, w)
				if err != nil {
					return nil, fmt.Errorf("workload %v: %w", w, err)
				}
				res, err := eventsim.MaxThroughput(t, w, s, cfg)
				if err != nil {
					return nil, fmt.Errorf("workload %v: %w", w, err)
				}
				tps[name] = res.Throughput
			}
			base := tps["FCFS"]
			return Fig6Point{
				Workload:       w.Key(),
				TheoreticalMax: opt.Throughput / base,
				TheoreticalMin: worst.Throughput / base,
				MAXIT:          tps["MAXIT"] / base,
				SRPT:           tps["SRPT"] / base,
				MAXTP:          tps["MAXTP"] / base,
			}, nil
		},
		Reduce: func(cells []any) (*scenario.Result, error) {
			r := &Fig6Result{Name: t.Name()}
			r.Points = make([]Fig6Point, len(cells))
			for i, c := range cells {
				r.Points[i] = c.(Fig6Point)
			}
			sort.Slice(r.Points, func(i, j int) bool { return r.Points[i].TheoreticalMax < r.Points[j].TheoreticalMax })
			tbl := scenario.NewTable("fig6", str("workload"),
				flt("theoretical_max"), flt("maxtp"), flt("srpt"), flt("maxit"), flt("theoretical_min"))
			n := float64(len(r.Points))
			for _, p := range r.Points {
				r.MeanMAXIT += p.MAXIT / n
				r.MeanSRPT += p.SRPT / n
				r.MeanMAXTP += p.MAXTP / n
				r.MeanTheoreticalMax += p.TheoreticalMax / n
				r.MeanTheoreticalMin += p.TheoreticalMin / n
				r.MAXTPGapToOptimal += (p.TheoreticalMax - p.MAXTP) / p.TheoreticalMax / n
				tbl.Add(p.Workload, p.TheoreticalMax, p.MAXTP, p.SRPT, p.MAXIT, p.TheoreticalMin)
			}
			return &scenario.Result{Value: r, Text: r.Format(), Tables: []*scenario.Table{tbl}}, nil
		},
	}, nil
}

// Fig6 runs the maximum-throughput experiments.
func Fig6(e *Env) (*Fig6Result, error) {
	return result[*Fig6Result](context.Background(), e, Fig6Scenario())
}

// Format renders the series summary and a down-sampled point list.
func (r *Fig6Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 (%s, %d workloads): max-throughput experiment, relative to FCFS\n", r.Name, len(r.Points))
	fmt.Fprintf(&b, "  means: theoretical max %.3f, MAXTP %.3f, SRPT %.3f, MAXIT %.3f, theoretical min %.3f\n",
		r.MeanTheoreticalMax, r.MeanMAXTP, r.MeanSRPT, r.MeanMAXIT, r.MeanTheoreticalMin)
	fmt.Fprintf(&b, "  MAXTP gap to LP optimum: %.1f%%   [paper: MAXTP almost exactly matches the maximum; SRPT = FCFS; MAXIT slightly below]\n",
		100*r.MAXTPGapToOptimal)
	step := len(r.Points)/20 + 1
	fmt.Fprintf(&b, "  workload (ordered by theoretical max): max / MAXTP / SRPT / MAXIT / min\n")
	for i := 0; i < len(r.Points); i += step {
		p := r.Points[i]
		fmt.Fprintf(&b, "  %-12s %.3f / %.3f / %.3f / %.3f / %.3f\n",
			p.Workload, p.TheoreticalMax, p.MAXTP, p.SRPT, p.MAXIT, p.TheoreticalMin)
	}
	return b.String()
}
