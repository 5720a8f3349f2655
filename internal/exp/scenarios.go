package exp

import (
	"context"
	"fmt"

	"symbiosched/internal/scenario"
)

// Column constructors for the drivers' table declarations.
var (
	str  = scenario.StrCol
	flt  = scenario.FloatCol
	intc = scenario.IntCol
)

// planner adapts an Env-typed plan builder to the engine's opaque-Env
// signature with one cast at the boundary.
func planner(build func(e *Env) (*scenario.Plan, error)) func(context.Context, scenario.Env) (*scenario.Plan, error) {
	return func(_ context.Context, env scenario.Env) (*scenario.Plan, error) {
		e, ok := env.(*Env)
		if !ok {
			return nil, fmt.Errorf("exp: scenario environment is %T, want *exp.Env", env)
		}
		return build(e)
	}
}

// simple wraps a driver without a swept grid as a one-cell scenario: the
// driver's own fan-outs (suite sweeps, perfdb builds) already run through
// the Env's runner configuration, so the engine contributes the uniform
// Result, registry dispatch and CSV path.
func simple(name, desc string, run func(e *Env) (*scenario.Result, error)) *scenario.Scenario {
	return &scenario.Scenario{
		Name: name,
		Desc: desc,
		Plan: planner(func(e *Env) (*scenario.Plan, error) {
			return &scenario.Plan{
				Cell: func(context.Context, scenario.Point) (any, error) {
					return run(e)
				},
				Reduce: func(cells []any) (*scenario.Result, error) {
					return cells[0].(*scenario.Result), nil
				},
			}, nil
		}),
	}
}

// report is a driver result that renders its own text.
type report interface{ Format() string }

// single wraps a one-result driver as a one-cell scenario; table, when
// non-nil, builds the result's CSV table under the scenario's name.
func single[R report](name, desc string, run func(e *Env) (R, error), table func(R, string) *scenario.Table) *scenario.Scenario {
	return simple(name, desc, func(e *Env) (*scenario.Result, error) {
		r, err := run(e)
		if err != nil {
			return nil, err
		}
		res := &scenario.Result{Value: r, Text: r.Format()}
		if table != nil {
			res.Tables = []*scenario.Table{table(r, name)}
		}
		return res, nil
	})
}

// paired wraps a driver reporting both configurations as a one-cell
// scenario: the SMT text then the quad text, and one table each, named
// <name>_smt and <name>_quad.
func paired[R report](name, desc string, run func(e *Env) (R, R, error), table func(R, string) *scenario.Table) *scenario.Scenario {
	return simple(name, desc, func(e *Env) (*scenario.Result, error) {
		smt, quad, err := run(e)
		if err != nil {
			return nil, err
		}
		return &scenario.Result{Value: []R{smt, quad}, Text: smt.Format() + quad.Format(),
			Tables: []*scenario.Table{table(smt, name+"_smt"), table(quad, name+"_quad")}}, nil
	})
}

// gridScenario wraps an Env-typed plan builder (whose Reduce already
// produces the full Result) under a registry name.
func gridScenario(name, desc string, build func(e *Env) (*scenario.Plan, error)) *scenario.Scenario {
	return &scenario.Scenario{Name: name, Desc: desc, Plan: planner(build)}
}

// labels renders an axis' values as its canonical labels. Float axes use
// scenario.FormatFloat and workload axes Workload.Key, so grid labels,
// CSV cells and seeds agree.
func labels[T any](vals []T, label func(T) string) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = label(v)
	}
	return out
}

// FarmScenario is the server-farm grid under configurable options; the
// registered "farm" scenario uses the defaults, tests pin tiny variants.
func FarmScenario(opt FarmOptions) *scenario.Scenario {
	return gridScenario("farm",
		"server farm: dispatcher x load grid, mean/P95 turnaround and utilisation",
		func(e *Env) (*scenario.Plan, error) { return farmPlan(e, opt) })
}

// OnlineScenario is the knowledge-gap grid under configurable options.
func OnlineScenario(opt OnlineOptions) *scenario.Scenario {
	return gridScenario("online",
		"knowledge gap: online estimators (sampler, pairwise) vs the oracle table",
		func(e *Env) (*scenario.Plan, error) { return onlinePlan(e, opt) })
}

// Fig5Scenario is the Section VI latency grid.
func Fig5Scenario() *scenario.Scenario {
	return gridScenario("fig5",
		"Figure 5: latency experiment, four schedulers at three loads (SMT)",
		fig5Plan)
}

// Fig6Scenario is the max-throughput grid.
func Fig6Scenario() *scenario.Scenario {
	return gridScenario("fig6",
		"Figure 6: max-throughput experiment vs the LP bounds (SMT)",
		fig6Plan)
}

// RunScenario looks the named scenario up in the registry and executes it
// over e with the Env's parallelism and progress wiring.
func RunScenario(ctx context.Context, e *Env, name string) (*scenario.Result, error) {
	s, ok := scenario.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("exp: unknown scenario %q", name)
	}
	return e.Run(ctx, s)
}

// init registers every study — the paper's tables and figures first, then
// the extensions — so cmd/symbiosim, the golden tests and any other
// consumer dispatch off one list.
func init() {
	scenario.Register(simple("table1",
		"Table I: the selected benchmarks and their characteristics",
		func(e *Env) (*scenario.Result, error) {
			rows := Table1(e)
			return &scenario.Result{Value: rows, Text: FormatTable1(rows),
				Tables: []*scenario.Table{table1Table(rows)}}, nil
		}))
	scenario.Register(single("fig1",
		"Figure 1: variability of job IPC, instantaneous and average throughput",
		Fig1, (*Fig1Result).table))
	scenario.Register(paired("fig2",
		"Figure 2: FCFS vs optimal scheduling, one point per workload",
		Fig2, (*Fig2Result).table))
	scenario.Register(paired("fig3",
		"Figure 3: throughput spread vs the linear-bottleneck model error",
		Fig3, (*Fig3Result).table))
	scenario.Register(paired("table2",
		"Table II: throughput and scheduler time fractions by heterogeneity",
		Table2, (*Table2Result).table))
	scenario.Register(single("n8",
		"Section V-B: optimal-scheduler gains with eight job types",
		N8, nil))
	scenario.Register(single("fairness",
		"Section V-D: the fairness counterfactual (equalised co-run rates)",
		Fairness, nil))
	scenario.Register(single("fig4",
		"Figure 4: analytic M/M/4 turnaround-vs-arrival-rate curves",
		Fig4, (*Fig4Result).table))
	scenario.Register(Fig5Scenario())
	scenario.Register(Fig6Scenario())
	scenario.Register(single("uarch",
		"Section VII: SMT fetch/ROB policy study under optimal throughput",
		Uarch, nil))
	scenario.Register(simple("makespan",
		"makespan extension: small-batch scheduling a la Settle/Xu",
		func(e *Env) (*scenario.Result, error) {
			small, err := MakespanExperiment(e, 8)
			if err != nil {
				return nil, err
			}
			large, err := MakespanExperiment(e, 16)
			if err != nil {
				return nil, err
			}
			return &scenario.Result{Value: small, Text: small.Format() + large.Format(),
				Tables: []*scenario.Table{small.table("makespan8")}}, nil
		}))
	scenario.Register(FarmScenario(FarmOptions{}))
	scenario.Register(OnlineScenario(OnlineOptions{}))
	scenario.Register(HetfarmScenario())
	scenario.Register(MegafarmScenario())
	scenario.Register(BurstScenario())
	scenario.Register(SLOScenario())
	scenario.Register(ResilienceScenario())
}
