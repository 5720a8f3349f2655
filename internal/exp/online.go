package exp

import (
	"context"
	"fmt"
	"strings"

	"symbiosched/internal/core"
	"symbiosched/internal/eventsim"
	"symbiosched/internal/online"
	"symbiosched/internal/perfdb"
	"symbiosched/internal/scenario"
	"symbiosched/internal/sched"
	"symbiosched/internal/workload"
)

// OnlineLoads are the default offered loads of the knowledge-gap
// experiment, relative to each workload's FCFS maximum throughput.
var OnlineLoads = []float64{0.5, 0.8, 0.9}

// onlineSched is the scheduler run over every estimator: MAXIT, the
// paper's throughput-greedy policy and the one whose quality depends
// entirely on the rate knowledge.
const onlineSched = "MAXIT"

// OnlineOptions parameterises the knowledge-gap experiment grid.
type OnlineOptions struct {
	// Workloads caps the number of sampled N=4 workloads per machine
	// (default 8); each grid cell averages over them.
	Workloads int
}

// OnlineCell is one (machine, estimator, load) aggregate.
type OnlineCell struct {
	Machine   string
	Estimator string
	Load      float64
	// Turnaround and Throughput are means over workloads.
	Turnaround float64
	Throughput float64
	// TurnaroundVsOracle and ThroughputVsOracle are the same runs
	// normalised, per workload, to the oracle estimator under identical
	// arrivals (common random numbers): the price of learning.
	TurnaroundVsOracle float64
	ThroughputVsOracle float64
}

// OnlineResult is the knowledge-gap experiment: how close schedulers that
// must discover co-run rates at run time come to the paper's
// perfect-knowledge oracle, as load grows.
type OnlineResult struct {
	Workloads int
	// Cells are ordered machine-major (smt then quad), then estimator
	// (online.Names), then load (OnlineLoads).
	Cells []OnlineCell
}

// onlineAcc is one (estimator, load) cell's contribution while folding
// (machine, workload) items.
type onlineAcc struct{ turn, tp, turnRel, tpRel float64 }

// onlinePlan lays the knowledge-gap experiment out on the scenario
// engine: the grid is machine x sampled workload (each cell runs the
// scheduler once per estimator and load under identical arrivals), and
// the reduction folds cells in enumeration order, so the grid — and the
// golden CSV — is byte-identical at any parallelism level.
func onlinePlan(e *Env, opt OnlineOptions) (*scenario.Plan, error) {
	if opt.Workloads <= 0 {
		opt.Workloads = 8
	}
	ws := thin(e.sampledWorkloads(), opt.Workloads)
	tables := []*perfdb.Table{e.Table(SMT), e.Table(Quad)}

	return &scenario.Plan{
		Axes: []scenario.Axis{
			{Name: "machine", Values: []string{SMT.String(), Quad.String()}},
			{Name: "workload", Values: labels(ws, workload.Workload.Key)},
		},
		// One (machine, workload) item's contribution: [estimator][load].
		// The linear index idx = mi*len(ws)+wi is the engine's row-major
		// enumeration of the grid, from which the seeds derive.
		Cell: func(_ context.Context, pt scenario.Point) (any, error) {
			mi, wi := pt.Index("machine"), pt.Index("workload")
			idx := mi*len(ws) + wi
			t, w := tables[mi], ws[wi]
			base := core.FCFS(t, w, core.FCFSConfig{Jobs: e.Cfg.FCFSJobs, Seed: e.Cfg.Seed}).Throughput
			if base <= 0 {
				return nil, fmt.Errorf("online: workload %v has no FCFS throughput", w)
			}
			local := make([][]onlineAcc, len(online.Names))
			for i := range local {
				local[i] = make([]onlineAcc, len(OnlineLoads))
			}
			for li, load := range OnlineLoads {
				runOne := func(name string) (*eventsim.Result, error) {
					est, err := online.New(name, t, e.Cfg.Seed+uint64(idx)*0x9e3779b97f4a7c15+uint64(li))
					if err != nil {
						return nil, err
					}
					s, err := sched.New(onlineSched, est, w)
					if err != nil {
						return nil, err
					}
					// Identical arrival/job streams for every estimator
					// (common random numbers): the seed depends only on
					// the grid position, never on the estimator.
					return eventsim.LatencyObserved(t, w, s, est, eventsim.LatencyConfig{
						Lambda:    load * base,
						Jobs:      e.Cfg.SimJobs,
						SizeShape: 4,
						Seed:      e.Cfg.Seed + uint64(idx)*31 + uint64(li),
					})
				}
				oracle, err := runOne("oracle")
				if err != nil {
					return nil, fmt.Errorf("online %s %v load %.2f oracle: %w", machines[mi], w, load, err)
				}
				for ei, name := range online.Names {
					res := oracle
					if name != "oracle" {
						if res, err = runOne(name); err != nil {
							return nil, fmt.Errorf("online %s %v load %.2f %s: %w", machines[mi], w, load, name, err)
						}
					}
					a := onlineAcc{turn: res.MeanTurnaround, tp: res.Throughput, turnRel: 1, tpRel: 1}
					if oracle.MeanTurnaround > 0 {
						a.turnRel = res.MeanTurnaround / oracle.MeanTurnaround
					}
					if oracle.Throughput > 0 {
						a.tpRel = res.Throughput / oracle.Throughput
					}
					local[ei][li] = a
				}
			}
			return local, nil
		},
		Reduce: func(cells []any) (*scenario.Result, error) {
			// accs[machine][estimator][load], folded in item order.
			accs := make([][][]onlineAcc, len(machines))
			for mi := range accs {
				accs[mi] = make([][]onlineAcc, len(online.Names))
				for ei := range accs[mi] {
					accs[mi][ei] = make([]onlineAcc, len(OnlineLoads))
				}
			}
			for idx, c := range cells {
				mi := idx / len(ws)
				local := c.([][]onlineAcc)
				for ei := range local {
					for li := range local[ei] {
						accs[mi][ei][li].turn += local[ei][li].turn
						accs[mi][ei][li].tp += local[ei][li].tp
						accs[mi][ei][li].turnRel += local[ei][li].turnRel
						accs[mi][ei][li].tpRel += local[ei][li].tpRel
					}
				}
			}
			r := &OnlineResult{Workloads: len(ws)}
			tbl := scenario.NewTable("online", str("machine"), str("estimator"), flt("load"),
				flt("turnaround"), flt("throughput"), flt("turnaround_vs_oracle"), flt("throughput_vs_oracle"))
			n := float64(len(ws))
			for mi, m := range machines {
				for ei, name := range online.Names {
					for li, load := range OnlineLoads {
						a := accs[mi][ei][li]
						c := OnlineCell{
							Machine:            m.String(),
							Estimator:          name,
							Load:               load,
							Turnaround:         a.turn / n,
							Throughput:         a.tp / n,
							TurnaroundVsOracle: a.turnRel / n,
							ThroughputVsOracle: a.tpRel / n,
						}
						r.Cells = append(r.Cells, c)
						tbl.Add(c.Machine, c.Estimator, c.Load, c.Turnaround, c.Throughput,
							c.TurnaroundVsOracle, c.ThroughputVsOracle)
					}
				}
			}
			return &scenario.Result{Value: r, Text: r.Format(), Tables: []*scenario.Table{tbl}}, nil
		},
	}, nil
}

// Online runs the knowledge-gap experiment on the SMT and quad-core
// machines: for every sampled workload and load, MAXIT is run once per
// estimator — oracle knowledge, SOS-style sampling, and the pairwise
// interference model — under identical Poisson arrivals, and
// turnaround/throughput are reported relative to the oracle run.
func Online(e *Env, opt OnlineOptions) (*OnlineResult, error) {
	return result[*OnlineResult](context.Background(), e, OnlineScenario(opt))
}

// Format renders the knowledge-gap grids: per machine, turnaround and
// throughput relative to the perfect-knowledge oracle.
func (r *OnlineResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Knowledge gap (%s over learned rates, %d workloads): online estimators vs the oracle table\n",
		onlineSched, r.Workloads)
	n := len(online.Names) * len(OnlineLoads)
	for mi, m := range machines {
		fmt.Fprintf(&b, "  %s machine\n", m)
		g := loadGrid[OnlineCell]{b: &b, indent: "    ", width: 8, labels: online.Names, loads: OnlineLoads, cells: r.Cells[mi*n : (mi+1)*n]}
		g.panel("turnaround vs oracle (1 = perfect knowledge; lower is better)", "  %9.3f",
			func(c OnlineCell) float64 { return c.TurnaroundVsOracle })
		g.panel("throughput vs oracle (1 = perfect knowledge; higher is better)", "  %9.3f",
			func(c OnlineCell) float64 { return c.ThroughputVsOracle })
	}
	return b.String()
}
