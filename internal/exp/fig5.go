package exp

import (
	"context"
	"fmt"
	"strings"

	"symbiosched/internal/eventsim"
	"symbiosched/internal/perfdb"
	"symbiosched/internal/scenario"
	"symbiosched/internal/sched"
	"symbiosched/internal/workload"
)

// Fig5Loads are the offered loads of Figure 5, relative to the FCFS
// maximum throughput.
var Fig5Loads = []float64{0.8, 0.9, 0.95}

// Fig5Cell is one (scheduler, load) aggregate of Figure 5.
type Fig5Cell struct {
	Scheduler string
	Load      float64
	// TurnaroundVsFCFS is the mean turnaround normalised to FCFS at the
	// same load (paper: MAXTP reaches ~0.77 at load 0.95).
	TurnaroundVsFCFS float64
	// Utilisation is the mean number of busy contexts (paper plots
	// ~2.5-3.7).
	Utilisation float64
	// EmptyFraction is the mean fraction of time the system is empty.
	EmptyFraction float64
}

// Fig5Result reproduces Figure 5 on the SMT configuration: turnaround,
// utilisation and empty fraction for the four schedulers at three loads,
// averaged over the (sampled) N=4 workloads.
type Fig5Result struct {
	Name      string
	Workloads int
	Cells     []Fig5Cell // ordered scheduler-major, load-minor
}

// sampledWorkloads returns the N=4 workloads of the sweep, thinned to
// cfg.SampleWorkloads when set.
func (e *Env) sampledWorkloads() []workload.Workload {
	return thin(workload.EnumerateWorkloads(len(e.Cfg.Suite), 4), e.Cfg.SampleWorkloads)
}

// thin keeps every (len/n)-th workload, at most n of them; n <= 0 keeps
// them all.
func thin(ws []workload.Workload, n int) []workload.Workload {
	if n <= 0 || n >= len(ws) {
		return ws
	}
	step := len(ws) / n
	var out []workload.Workload
	for i := 0; i < len(ws) && len(out) < n; i += step {
		out = append(out, ws[i])
	}
	return out
}

// fig5Acc is one (scheduler, load) cell's running sum while folding
// workloads.
type fig5Acc struct {
	turnaround, util, empty float64
}

// fig5Plan lays Figure 5 out on the scenario engine: the grid is the
// sampled-workload axis (each cell runs all scheduler x load simulations
// for one workload, normalised to that workload's own FCFS run), and the
// reduction folds the cells in workload order — so float sums, and hence
// the golden CSV, are identical at every parallelism level.
func fig5Plan(e *Env) (*scenario.Plan, error) {
	t := e.Table(SMT)
	ws := e.sampledWorkloads()
	sweep, err := e.Sweep(SMT)
	if err != nil {
		return nil, err
	}
	// Keyed by the packed uint64 workload signature: this lookup sits in
	// the per-workload sweep path, where string keys would re-format the
	// workload on every probe. Workload.Key() remains the CSV/report
	// label form.
	fcfsTP := make(map[uint64]float64, len(sweep.Workloads))
	for _, a := range sweep.Workloads {
		fcfsTP[perfdb.Key(workload.Coschedule(a.Workload))] = a.FCFSTP
	}

	return &scenario.Plan{
		Axes: []scenario.Axis{{Name: "workload", Values: labels(ws, workload.Workload.Key)}},
		// One workload's contribution: [scheduler][load], turnaround
		// already normalised to the workload's own FCFS run.
		Cell: func(_ context.Context, pt scenario.Point) (any, error) {
			wi := pt.Index("workload")
			w := ws[wi]
			base := fcfsTP[perfdb.Key(workload.Coschedule(w))]
			if base <= 0 {
				return nil, fmt.Errorf("fig5: workload %v has no FCFS throughput", w)
			}
			local := make([][]fig5Acc, len(sched.Names))
			for i := range local {
				local[i] = make([]fig5Acc, len(Fig5Loads))
			}
			fcfsTurn := make([]float64, len(Fig5Loads))
			for li, load := range Fig5Loads {
				for si, name := range sched.Names {
					s, err := sched.New(name, t, w)
					if err != nil {
						return nil, fmt.Errorf("workload %v %s load %.2f: %w", w, name, load, err)
					}
					// Job sizes are Erlang-4 around mean 1: jobs of
					// "approximately the same size" (Section VI) with
					// enough variance for the queueing behaviour a
					// latency experiment near saturation is about.
					res, err := eventsim.Latency(t, w, s, eventsim.LatencyConfig{
						Lambda:    load * base,
						Jobs:      e.Cfg.SimJobs,
						SizeShape: 4,
						Seed:      e.Cfg.Seed + uint64(wi)*31 + uint64(li),
					})
					if err != nil {
						return nil, fmt.Errorf("workload %v %s load %.2f: %w", w, name, load, err)
					}
					if name == "FCFS" {
						fcfsTurn[li] = res.MeanTurnaround
					}
					local[si][li] = fig5Acc{res.MeanTurnaround, res.Utilisation, res.EmptyFraction}
				}
			}
			for si := range local {
				for li := range local[si] {
					if fcfsTurn[li] > 0 {
						local[si][li].turnaround /= fcfsTurn[li]
					} else {
						local[si][li].turnaround = 1
					}
				}
			}
			return local, nil
		},
		Reduce: func(cells []any) (*scenario.Result, error) {
			// accs[scheduler][load], folded in workload order.
			accs := make([][]fig5Acc, len(sched.Names))
			for i := range accs {
				accs[i] = make([]fig5Acc, len(Fig5Loads))
			}
			for _, c := range cells {
				local := c.([][]fig5Acc)
				for si := range local {
					for li := range local[si] {
						accs[si][li].turnaround += local[si][li].turnaround
						accs[si][li].util += local[si][li].util
						accs[si][li].empty += local[si][li].empty
					}
				}
			}
			r := &Fig5Result{Name: t.Name(), Workloads: len(ws)}
			tbl := scenario.NewTable("fig5", str("scheduler"), flt("load"),
				flt("turnaround_vs_fcfs"), flt("utilisation"), flt("empty_fraction"))
			n := float64(len(ws))
			for si, name := range sched.Names {
				for li, load := range Fig5Loads {
					a := accs[si][li]
					c := Fig5Cell{
						Scheduler:        name,
						Load:             load,
						TurnaroundVsFCFS: a.turnaround / n,
						Utilisation:      a.util / n,
						EmptyFraction:    a.empty / n,
					}
					r.Cells = append(r.Cells, c)
					tbl.Add(c.Scheduler, c.Load, c.TurnaroundVsFCFS, c.Utilisation, c.EmptyFraction)
				}
			}
			return &scenario.Result{Value: r, Text: r.Format(), Tables: []*scenario.Table{tbl}}, nil
		},
	}, nil
}

// Fig5 runs the latency experiments on the SMT configuration.
func Fig5(e *Env) (*Fig5Result, error) {
	return result[*Fig5Result](context.Background(), e, Fig5Scenario())
}

// Cell returns the aggregate for a scheduler and load.
func (r *Fig5Result) Cell(scheduler string, load float64) (Fig5Cell, bool) {
	for _, c := range r.Cells {
		if c.Scheduler == scheduler && c.Load == load {
			return c, true
		}
	}
	return Fig5Cell{}, false
}

// Format renders the three panels of Figure 5.
func (r *Fig5Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 (%s, %d workloads): latency experiment, loads relative to FCFS max throughput\n", r.Name, r.Workloads)
	g := loadGrid[Fig5Cell]{b: &b, indent: "  ", width: 6, labels: sched.Names, loads: Fig5Loads, cells: r.Cells}
	g.panel("turnaround time normalised to FCFS [paper: SRPT lowest at 0.8/0.9; MAXTP ~0.77 at 0.95]", "  %9.3f",
		func(c Fig5Cell) float64 { return c.TurnaroundVsFCFS })
	g.panel("processor utilisation (busy contexts) [paper: ~2.5-3.7, MAXTP lowest]", "  %9.3f",
		func(c Fig5Cell) float64 { return c.Utilisation })
	g.panel("processor empty fraction [paper: ~0.02-0.13, MAXTP highest]", "  %9.4f",
		func(c Fig5Cell) float64 { return c.EmptyFraction })
	return b.String()
}
