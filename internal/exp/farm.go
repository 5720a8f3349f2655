package exp

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"symbiosched/internal/core"
	"symbiosched/internal/farm"
	"symbiosched/internal/fault"
	"symbiosched/internal/metrics"
	"symbiosched/internal/online"
	"symbiosched/internal/perfdb"
	"symbiosched/internal/scenario"
	"symbiosched/internal/sched"
	"symbiosched/internal/workload"
)

// FarmLoads are the default offered loads of the farm experiment,
// relative to the farm's aggregate FCFS maximum throughput.
var FarmLoads = []float64{0.5, 0.8, 0.95}

// FarmOptions parameterises the farm experiment grid.
type FarmOptions struct {
	// Servers is the farm size (default 4).
	Servers int
	// Hetero alternates SMT and quad-core servers; all-SMT otherwise.
	Hetero bool
	// Sched names the per-server scheduler (default "FCFS").
	Sched string
	// Estimator names the per-server rate knowledge: "oracle" (default)
	// decides over the true performance table; "sampler" and "pairwise"
	// learn co-run rates online (internal/online) — schedulers and the
	// li dispatcher then run on estimates instead of the oracle.
	Estimator string
	// Dispatchers defaults to every built-in policy.
	Dispatchers []string
	// Loads defaults to FarmLoads.
	Loads []float64
	// Replications is the number of seeds per cell (default 3).
	Replications int
	// Faults, when enabled (MTBF > 0), injects deterministic server
	// failure/repair into every cell (internal/fault). The fault streams
	// derive from the replication seeds, so every dispatcher and load
	// faces the same outage trajectory — and the grid grows the
	// availability/goodput columns in its report.
	Faults fault.Config
}

func (o FarmOptions) withDefaults() FarmOptions {
	if o.Servers <= 0 {
		o.Servers = 4
	}
	if o.Sched == "" {
		o.Sched = "FCFS"
	}
	if o.Estimator == "" {
		o.Estimator = "oracle"
	}
	if len(o.Dispatchers) == 0 {
		o.Dispatchers = farm.DispatcherNames
	}
	if len(o.Loads) == 0 {
		o.Loads = FarmLoads
	}
	if o.Replications <= 0 {
		o.Replications = 3
	}
	return o
}

// FarmResult is the full dispatcher-by-load grid.
type FarmResult struct {
	// Name describes the farm (server count, machine mix, scheduler).
	Name string
	// Workload is the jobs' workload key over the suite.
	Workload string
	// Capacity is the aggregate FCFS maximum throughput the loads are
	// calibrated against.
	Capacity     float64
	Servers      int
	Replications int
	// Faulted records whether the grid ran under fault injection — it
	// gates the availability/goodput panels in Format.
	Faulted bool
	// Dispatchers and Loads span the grid.
	Dispatchers []string
	Loads       []float64
	// Cells are the per-(dispatcher, load) aggregates over replications,
	// ordered dispatcher-major, load-minor. The fault aggregates are
	// trivial (availability 1, counts 0) when FarmOptions.Faults is
	// disabled; they appear in Format's fault panels but not in the
	// pinned farm CSV (the resilience scenario owns the fault columns).
	Cells []*farm.SweepResult
	// Metrics is the whole grid's merged instrumentation snapshot (nil
	// unless exp.Config.Metrics): the per-cell sweep snapshots merged in
	// cell enumeration order, so it is bit-identical at any parallelism.
	Metrics *metrics.Snapshot
}

// farmWorkload picks the experiment's workload: the first four suite
// benchmarks (or fewer for tiny suites).
func farmWorkload(e *Env) workload.Workload {
	n := 4
	if len(e.Cfg.Suite) < n {
		n = len(e.Cfg.Suite)
	}
	w := make(workload.Workload, n)
	for i := range w {
		w[i] = i
	}
	return w
}

// farmFleet builds the server list — all-SMT, or alternating SMT/quad
// when opt.Hetero is set — and the aggregate capacity its loads are
// calibrated against: the sum over servers of the per-table FCFS
// maximum throughput. MAXTP and the online estimators are constructed
// per simulation via the spec factories (they carry run state); the
// offline LP phase MAXTP needs runs inside the factory, once per
// replication.
func farmFleet(e *Env, opt FarmOptions) ([]farm.ServerSpec, float64, error) {
	w := farmWorkload(e)
	tables := []*perfdb.Table{e.Table(SMT)}
	if opt.Hetero {
		tables = append(tables, e.Table(Quad))
	}
	// Validate the names once, eagerly — including combinations the
	// factories would only reject mid-sweep (MAXTP over a learner).
	val, err := online.New(opt.Estimator, tables[0], 1)
	if err != nil {
		return nil, 0, err
	}
	if _, err := sched.New(opt.Sched, val, w); err != nil {
		return nil, 0, err
	}
	for _, name := range opt.Dispatchers {
		if _, err := farm.NewDispatcher(name); err != nil {
			return nil, 0, err
		}
	}
	tps := make([]float64, len(tables))
	for i, t := range tables {
		tps[i] = core.FCFS(t, w, core.FCFSConfig{Jobs: e.Cfg.FCFSJobs, Seed: e.Cfg.Seed}).Throughput
	}
	specs := make([]farm.ServerSpec, opt.Servers)
	capacity := 0.0
	for i := range specs {
		t := tables[i%len(tables)]
		specs[i] = farm.ServerSpec{
			Table: t,
			Sched: func(rs online.RateSource) (sched.Scheduler, error) { return sched.New(opt.Sched, rs, w) },
		}
		if opt.Estimator != "oracle" {
			specs[i].Estimator = func(seed uint64) (online.Estimator, error) { return online.New(opt.Estimator, t, seed) }
		}
		capacity += tps[i%len(tables)]
	}
	return specs, capacity, nil
}

// farmPlan lays the dispatcher x load x replication grid out on the
// scenario engine: every cell is one farm simulation, enumerated
// dispatcher-major with the replication innermost, so the grid (and the
// golden CSV) is bit-identical at any parallelism level.
func farmPlan(e *Env, opt FarmOptions) (*scenario.Plan, error) {
	opt = opt.withDefaults()
	specs, capacity, err := farmFleet(e, opt)
	if err != nil {
		return nil, err
	}

	mix := "smt"
	if opt.Hetero {
		mix = "smt+quad"
	}
	name := fmt.Sprintf("%d x %s / %s", opt.Servers, mix, opt.Sched)
	if opt.Estimator != "oracle" {
		name += " @ " + opt.Estimator
	}
	if opt.Faults.Enabled() {
		name += fmt.Sprintf(" !mtbf=%g", opt.Faults.MTBF)
	}
	axes := []scenario.Axis{
		{Name: "dispatcher", Values: opt.Dispatchers},
		{Name: "load", Values: labels(opt.Loads, scenario.FormatFloat)},
	}
	run := func(pt scenario.Point) farmRun {
		// The base seed carries no axis: every (dispatcher, load) cell
		// of a replication sees the same arrival streams (common random
		// numbers).
		cfg := e.farmConfig(opt.Loads[pt.Index("load")]*capacity, e.Cfg.Seed)
		cfg.Metrics = e.Cfg.Metrics
		cfg.Faults = opt.Faults
		return farmRun{specs, opt.Dispatchers[pt.Index("dispatcher")], cfg}
	}
	return replicated(e, "farm", axes, opt.Replications, run, func(aggs []*farm.SweepResult) (*scenario.Result, error) {
		r := &FarmResult{
			Name:         name,
			Workload:     farmWorkload(e).Key(),
			Capacity:     capacity,
			Servers:      opt.Servers,
			Replications: opt.Replications,
			Faulted:      opt.Faults.Enabled(),
			Dispatchers:  opt.Dispatchers,
			Loads:        opt.Loads,
			Cells:        aggs,
		}
		tbl := scenario.NewTable("farm", str("dispatcher"), flt("load"),
			flt("mean_turnaround"), flt("p50_turnaround"), flt("p95_turnaround"), flt("p99_turnaround"),
			flt("turnaround_std"), flt("utilisation"), flt("empty_fraction"), flt("throughput"))
		for i, c := range aggs {
			tbl.Add(opt.Dispatchers[i/len(opt.Loads)], opt.Loads[i%len(opt.Loads)],
				c.MeanTurnaround, c.P50Turnaround, c.P95Turnaround, c.P99Turnaround,
				c.TurnaroundStd, c.Utilisation, c.EmptyFraction, c.Throughput)
			if c.Metrics != nil {
				if r.Metrics == nil {
					r.Metrics = &metrics.Snapshot{}
				}
				r.Metrics.Merge(c.Metrics)
			}
		}
		tables := []*scenario.Table{tbl}
		if r.Metrics != nil {
			tables = append(tables, metricsTable("farm_metrics", r.Metrics))
		}
		return &scenario.Result{Value: r, Text: r.Format(), Tables: tables}, nil
	}), nil
}

// farmRun is one point of a replicated farm grid: the fleet, the
// dispatcher's name and the run's configuration.
type farmRun struct {
	specs []farm.ServerSpec
	disp  string
	cfg   farm.Config
}

// farmConfig is the farm scenarios' stock run: Cfg.SimJobs jobs of
// "approximately the same size" (Erlang-4 around mean 1) arriving at
// rate lambda.
func (e *Env) farmConfig(lambda float64, seed uint64) farm.Config {
	return farm.Config{Lambda: lambda, Jobs: e.Cfg.SimJobs, SizeShape: 4, Seed: seed}
}

// replicated lays a grid of replicated farm runs out on the scenario
// engine: axes plus an innermost "rep" axis of reps points. run names
// the farm run at a point, and farm.Replicate derives each
// replication's streams from the rep index. reduce receives one
// aggregate per point of axes, each folded over its replications in
// enumeration order, so the result is bit-identical at any parallelism.
func replicated(e *Env, name string, axes []scenario.Axis, reps int, run func(pt scenario.Point) farmRun,
	reduce func(aggs []*farm.SweepResult) (*scenario.Result, error)) *scenario.Plan {
	w := farmWorkload(e)
	repLabels := make([]string, reps)
	for i := range repLabels {
		repLabels[i] = strconv.Itoa(i)
	}
	return &scenario.Plan{
		Axes: append(axes[:len(axes):len(axes)], scenario.Axis{Name: "rep", Values: repLabels}),
		Cell: func(_ context.Context, pt scenario.Point) (any, error) {
			r := run(pt)
			rep, err := farm.Replicate(r.specs, r.disp, w, r.cfg, pt.Index("rep"))
			if err != nil {
				at := name
				for _, a := range axes {
					at += " " + a.Name + "=" + pt.Value(a.Name)
				}
				return nil, fmt.Errorf("%s: %w", at, err)
			}
			return rep, nil
		},
		Reduce: func(cells []any) (*scenario.Result, error) {
			aggs := make([]*farm.SweepResult, 0, len(cells)/reps)
			for i := 0; i < len(cells); i += reps {
				runs := make([]farm.Replication, reps)
				for k := range runs {
					runs[k] = cells[i+k].(farm.Replication)
				}
				aggs = append(aggs, farm.Aggregate(runs))
			}
			return reduce(aggs)
		},
	}
}

// metricsTable renders a merged metrics snapshot as a scenario table.
// Value cells carry the rows' canonical formatted bytes (integers for
// counters, 'g'/10 floats otherwise), so the CSV is the snapshot's exact
// deterministic serialisation.
func metricsTable(name string, snap *metrics.Snapshot) *scenario.Table {
	t := scenario.NewTable(name,
		str("metric"), str("kind"),
		str("field"), str("value"))
	for _, r := range snap.Rows {
		t.Add(r.Metric, r.Kind, r.Field, r.FormatValue())
	}
	return t
}

// fcfsFarm builds the stock farm of the extension scenarios — n FCFS
// servers over the oracle tables, all-SMT or alternating SMT/quad — plus
// its calibrated aggregate capacity.
func fcfsFarm(e *Env, n int, hetero bool) ([]farm.ServerSpec, float64, error) {
	return farmFleet(e, FarmOptions{Servers: n, Hetero: hetero}.withDefaults())
}

// Farm runs the dispatcher-by-load grid through the scenario engine:
// every cell averages opt.Replications independent farm simulations, and
// the grid is bit-identical at any parallelism level. A cancelled ctx
// aborts the sweep mid-grid and returns the context's error; no partial
// result is produced.
func Farm(ctx context.Context, e *Env, opt FarmOptions) (*FarmResult, error) {
	return result[*FarmResult](ctx, e, FarmScenario(opt))
}

// Cell returns the aggregate for a dispatcher and load.
func (r *FarmResult) Cell(dispatcher string, load float64) (*farm.SweepResult, bool) {
	for i, c := range r.Cells {
		if r.Dispatchers[i/len(r.Loads)] == dispatcher && r.Loads[i%len(r.Loads)] == load {
			return c, true
		}
	}
	return nil, false
}

// grid returns the dispatcher x load panel renderer over the cells.
func (r *FarmResult) grid(b *strings.Builder) loadGrid[*farm.SweepResult] {
	return loadGrid[*farm.SweepResult]{b: b, indent: "  ", width: 8, labels: r.Dispatchers, loads: r.Loads, cells: r.Cells}
}

// Format renders the grid: turnaround (mean and p95), utilisation and
// empty fraction per dispatcher and load.
func (r *FarmResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Server farm (%s): workload %s, aggregate FCFS capacity %.3f, %d replications/cell\n",
		r.Name, r.Workload, r.Capacity, r.Replications)
	g := r.grid(&b)
	g.panel("mean turnaround time (± std across replications below)", "  %9.3f",
		func(c *farm.SweepResult) float64 { return c.MeanTurnaround })
	g.panel("p95 turnaround time", "  %9.3f",
		func(c *farm.SweepResult) float64 { return c.P95Turnaround })
	g.panel("turnaround std across replications", "  %9.3f",
		func(c *farm.SweepResult) float64 { return c.TurnaroundStd })
	g.panel("farm utilisation (busy contexts / total contexts)", "  %9.3f",
		func(c *farm.SweepResult) float64 { return c.Utilisation })
	g.panel("per-server empty fraction (mean over servers)", "  %9.4f",
		func(c *farm.SweepResult) float64 { return c.EmptyFraction })
	if r.Faulted {
		g.panel("availability (1 - down server-time fraction)", "  %9.4f",
			func(c *farm.SweepResult) float64 { return c.Availability })
		g.panel("goodput (completed work per time unit)", "  %9.3f",
			func(c *farm.SweepResult) float64 { return c.Goodput })
		g.panel("redispatches (total across replications)", "  %9.0f",
			func(c *farm.SweepResult) float64 { return float64(c.Redispatches) })
	}
	return b.String()
}

// FormatQuantiles renders the turnaround quantile panels (P50/P99) that
// farmsim -quantiles appends to the standard grid — the latency-SLO view
// of the same replications.
func (r *FarmResult) FormatQuantiles() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Turnaround quantiles (%s), mean over %d replications/cell\n", r.Name, r.Replications)
	g := r.grid(&b)
	g.panel("p50 turnaround time (median)", "  %9.3f",
		func(c *farm.SweepResult) float64 { return c.P50Turnaround })
	g.panel("p99 turnaround time (tail SLO)", "  %9.3f",
		func(c *farm.SweepResult) float64 { return c.P99Turnaround })
	return b.String()
}

// loadGrid renders label x load text panels over cells stored
// label-major, load-minor: each panel is a title line, a header of
// loads, then one row per label.
type loadGrid[C any] struct {
	b      *strings.Builder
	indent string
	width  int // label column width
	labels []string
	loads  []float64
	cells  []C
}

func (g loadGrid[C]) panel(title, format string, get func(C) float64) {
	fmt.Fprintf(g.b, "%s%s\n%*s", g.indent, title, len(g.indent)+g.width, "")
	for _, l := range g.loads {
		fmt.Fprintf(g.b, "  load=%.2f", l)
	}
	g.b.WriteString("\n")
	for i, label := range g.labels {
		fmt.Fprintf(g.b, "%s%-*s", g.indent, g.width, label)
		for j := range g.loads {
			fmt.Fprintf(g.b, format, get(g.cells[i*len(g.loads)+j]))
		}
		g.b.WriteString("\n")
	}
}
