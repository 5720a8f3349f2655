package exp

import (
	"context"
	"fmt"
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

// FarmCell is one (dispatcher, load) aggregate of the farm experiment.
type FarmCell struct {
	Dispatcher string
	Load       float64
	// MeanTurnaround and the P50/P95/P99 quantiles are means over
	// replications.
	MeanTurnaround float64
	P50Turnaround  float64
	P95Turnaround  float64
	P99Turnaround  float64
	// TurnaroundStd is the across-replication standard deviation of the
	// mean turnaround.
	TurnaroundStd float64
	Utilisation   float64
	EmptyFraction float64
	Throughput    float64
	// Fault-injection aggregates (farm.SweepResult): means over
	// replications for the floats, totals for the counts. All trivial —
	// availability 1, counts 0 — when FarmOptions.Faults is disabled;
	// they appear in Format's fault panel but not in the pinned farm CSV
	// (the resilience scenario owns the fault-column table).
	Availability float64
	Goodput      float64
	WastedWork   float64
	Redispatches int
	Dropped      int
	Parked       int
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
	// Cells are ordered dispatcher-major, load-minor.
	Cells []FarmCell
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

// farmSpecs builds the server list: all-SMT, or alternating SMT/quad when
// hetero is set. MAXTP and the online estimators are constructed per
// simulation via the spec factories (they carry run state); the offline
// LP phase MAXTP needs runs inside the factory, once per replication.
func farmSpecs(e *Env, opt FarmOptions, w workload.Workload) ([]farm.ServerSpec, error) {
	tables := []*perfdb.Table{e.SMTTable()}
	if opt.Hetero {
		tables = append(tables, e.QuadTable())
	}
	specs := make([]farm.ServerSpec, opt.Servers)
	for i := range specs {
		t := tables[i%len(tables)]
		specs[i] = farm.ServerSpec{
			Table: t,
			Sched: func(rs online.RateSource) (sched.Scheduler, error) { return newScheduler(opt.Sched, rs, w) },
		}
		if opt.Estimator != "oracle" {
			specs[i].Estimator = func(seed uint64) (online.Estimator, error) { return online.New(opt.Estimator, t, seed) }
		}
	}
	// Validate the names once, eagerly — including combinations the
	// factories would only reject mid-sweep (MAXTP over a learner).
	val, err := online.New(opt.Estimator, tables[0], 1)
	if err != nil {
		return nil, err
	}
	if _, err := newScheduler(opt.Sched, val, w); err != nil {
		return nil, err
	}
	return specs, nil
}

// farmCapacity calibrates offered loads against the farm's aggregate
// capacity: the sum over servers of the per-table FCFS maximum
// throughput.
func farmCapacity(e *Env, specs []farm.ServerSpec, w workload.Workload) float64 {
	capacity := 0.0
	perTable := map[*perfdb.Table]float64{}
	for _, sp := range specs {
		tp, ok := perTable[sp.Table]
		if !ok {
			tp = core.FCFS(sp.Table, w, core.FCFSConfig{Jobs: e.Cfg.FCFSJobs, Seed: e.Cfg.Seed}).Throughput
			perTable[sp.Table] = tp
		}
		capacity += tp
	}
	return capacity
}

// farmPlan lays the dispatcher x load x replication grid out on the
// scenario engine: every cell is one farm simulation, enumerated
// dispatcher-major with the replication innermost — exactly the flattened
// sweep the pre-engine driver ran, so the grid (and the golden CSV) is
// bit-identical at any parallelism level. tableName is the CSV stem
// ("farm" for the registered scenario).
func farmPlan(e *Env, opt FarmOptions, tableName string) (*scenario.Plan, error) {
	opt = opt.withDefaults()
	w := farmWorkload(e)
	specs, err := farmSpecs(e, opt, w)
	if err != nil {
		return nil, err
	}
	capacity := farmCapacity(e, specs, w)

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
	reps := opt.Replications
	return &scenario.Plan{
		Axes: []scenario.Axis{
			{Name: "dispatcher", Values: opt.Dispatchers},
			{Name: "load", Values: floatLabels(opt.Loads)},
			{Name: "rep", Values: repLabels(reps)},
		},
		Cell: func(_ context.Context, pt scenario.Point) (any, error) {
			disp := opt.Dispatchers[pt.Index("dispatcher")]
			load := opt.Loads[pt.Index("load")]
			// The replication seed derives from the in-cell index alone:
			// every (dispatcher, load) cell sees the same arrival streams
			// (common random numbers), as the pre-engine sweep did.
			cfg := farm.Config{
				Lambda:    load * capacity,
				Jobs:      e.Cfg.SimJobs,
				SizeShape: 4, // jobs of "approximately the same size"
				Seed:      e.Cfg.Seed,
				Metrics:   e.Cfg.Metrics,
				Faults:    opt.Faults,
			}
			rep, err := farm.Replicate(specs, disp, w, cfg, pt.Index("rep"))
			if err != nil {
				return nil, fmt.Errorf("farm %s load %.2f: %w", disp, load, err)
			}
			return rep, nil
		},
		Reduce: func(cells []any) (*scenario.Result, error) {
			r := &FarmResult{
				Name:         name,
				Workload:     w.Key(),
				Capacity:     capacity,
				Servers:      opt.Servers,
				Replications: reps,
				Faulted:      opt.Faults.Enabled(),
			}
			aggs := foldReps(cells, reps)
			for _, agg := range aggs {
				if agg.Metrics == nil {
					continue
				}
				if r.Metrics == nil {
					r.Metrics = &metrics.Snapshot{}
				}
				r.Metrics.Merge(agg.Metrics)
			}
			ci := 0
			for _, disp := range opt.Dispatchers {
				for _, load := range opt.Loads {
					cell := aggs[ci]
					ci++
					r.Cells = append(r.Cells, FarmCell{
						Dispatcher:     disp,
						Load:           load,
						MeanTurnaround: cell.MeanTurnaround,
						P50Turnaround:  cell.P50Turnaround,
						P95Turnaround:  cell.P95Turnaround,
						P99Turnaround:  cell.P99Turnaround,
						TurnaroundStd:  cell.TurnaroundStd,
						Utilisation:    cell.Utilisation,
						EmptyFraction:  cell.EmptyFraction,
						Throughput:     cell.Throughput,
						Availability:   cell.Availability,
						Goodput:        cell.Goodput,
						WastedWork:     cell.WastedWork,
						Redispatches:   cell.Redispatches,
						Dropped:        cell.Dropped,
						Parked:         cell.Parked,
					})
				}
			}
			tbl, err := resultTable(tableName, r)
			if err != nil {
				return nil, err
			}
			tables := []*scenario.Table{tbl}
			if r.Metrics != nil {
				tables = append(tables, MetricsTable(tableName+"_metrics", r.Metrics))
			}
			return &scenario.Result{Value: r, Text: r.Format(), Tables: tables}, nil
		},
	}, nil
}

// foldReps groups a scenario grid's cell stream — replications innermost
// — into one aggregated SweepResult per grid row, folding in enumeration
// order so the aggregates are bit-identical at any parallelism level.
func foldReps(cells []any, reps int) []*farm.SweepResult {
	out := make([]*farm.SweepResult, 0, len(cells)/reps)
	for i := 0; i < len(cells); i += reps {
		runs := make([]farm.Replication, reps)
		for k := range runs {
			runs[k] = cells[i+k].(farm.Replication)
		}
		out = append(out, farm.Aggregate(runs))
	}
	return out
}

// MetricsTable renders a merged metrics snapshot as a scenario table.
// Value cells carry the rows' canonical formatted bytes (integers for
// counters, 'g'/10 floats otherwise), so the CSV is the snapshot's exact
// deterministic serialisation.
func MetricsTable(name string, snap *metrics.Snapshot) *scenario.Table {
	t := scenario.NewTable(name,
		scenario.StrCol("metric"), scenario.StrCol("kind"),
		scenario.StrCol("field"), scenario.StrCol("value"))
	for _, r := range snap.Rows {
		t.Add(r.Metric, r.Kind, r.Field, r.FormatValue())
	}
	return t
}

// fcfsFarm builds the stock farm of the extension scenarios — n FCFS
// servers over the oracle tables, all-SMT or alternating SMT/quad — plus
// its calibrated aggregate capacity.
func fcfsFarm(e *Env, n int, hetero bool) ([]farm.ServerSpec, float64, error) {
	opt := FarmOptions{Servers: n, Hetero: hetero}.withDefaults()
	w := farmWorkload(e)
	specs, err := farmSpecs(e, opt, w)
	if err != nil {
		return nil, 0, err
	}
	return specs, farmCapacity(e, specs, w), nil
}

// Farm runs the dispatcher-by-load grid through the scenario engine:
// every cell averages opt.Replications independent farm simulations, and
// the grid is bit-identical at any parallelism level. A cancelled ctx
// (e.g. farmsim's SIGINT handler) aborts the sweep mid-grid and returns
// the context's error; no partial result is produced.
func Farm(ctx context.Context, e *Env, opt FarmOptions) (*FarmResult, error) {
	p, err := farmPlan(e, opt, "farm")
	if err != nil {
		return nil, err
	}
	res, err := p.Execute(ctx, e.runCfg("farm"))
	if err != nil {
		return nil, err
	}
	return res.Value.(*FarmResult), nil
}

// Cell returns the aggregate for a dispatcher and load.
func (r *FarmResult) Cell(dispatcher string, load float64) (FarmCell, bool) {
	for _, c := range r.Cells {
		if c.Dispatcher == dispatcher && c.Load == load {
			return c, true
		}
	}
	return FarmCell{}, false
}

// loads returns the distinct loads in first-seen order.
func (r *FarmResult) loads() []float64 {
	return scenario.Distinct(r.Cells, func(c FarmCell) float64 { return c.Load })
}

// dispatchers returns the distinct dispatchers in first-seen order.
func (r *FarmResult) dispatchers() []string {
	return scenario.Distinct(r.Cells, func(c FarmCell) string { return c.Dispatcher })
}

// Format renders the grid: turnaround (mean and p95), utilisation and
// empty fraction per dispatcher and load.
func (r *FarmResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Server farm (%s): workload %s, aggregate FCFS capacity %.3f, %d replications/cell\n",
		r.Name, r.Workload, r.Capacity, r.Replications)
	loads := r.loads()
	panel := func(title string, get func(FarmCell) float64, format string) {
		fmt.Fprintf(&b, "  %s\n          ", title)
		for _, l := range loads {
			fmt.Fprintf(&b, "  load=%.2f", l)
		}
		fmt.Fprintln(&b)
		for _, d := range r.dispatchers() {
			fmt.Fprintf(&b, "  %-8s", d)
			for _, l := range loads {
				c, _ := r.Cell(d, l)
				fmt.Fprintf(&b, format, get(c))
			}
			fmt.Fprintln(&b)
		}
	}
	panel("mean turnaround time (± std across replications below)",
		func(c FarmCell) float64 { return c.MeanTurnaround }, "  %9.3f")
	panel("p95 turnaround time",
		func(c FarmCell) float64 { return c.P95Turnaround }, "  %9.3f")
	panel("turnaround std across replications",
		func(c FarmCell) float64 { return c.TurnaroundStd }, "  %9.3f")
	panel("farm utilisation (busy contexts / total contexts)",
		func(c FarmCell) float64 { return c.Utilisation }, "  %9.3f")
	panel("per-server empty fraction (mean over servers)",
		func(c FarmCell) float64 { return c.EmptyFraction }, "  %9.4f")
	if r.Faulted {
		panel("availability (1 - down server-time fraction)",
			func(c FarmCell) float64 { return c.Availability }, "  %9.4f")
		panel("goodput (completed work per time unit)",
			func(c FarmCell) float64 { return c.Goodput }, "  %9.3f")
		panel("redispatches (total across replications)",
			func(c FarmCell) float64 { return float64(c.Redispatches) }, "  %9.0f")
	}
	return b.String()
}

// FormatQuantiles renders the turnaround quantile panels (P50/P99) that
// farmsim -quantiles appends to the standard grid — the latency-SLO view
// of the same replications.
func (r *FarmResult) FormatQuantiles() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Turnaround quantiles (%s), mean over %d replications/cell\n", r.Name, r.Replications)
	loads := r.loads()
	panel := func(title string, get func(FarmCell) float64) {
		fmt.Fprintf(&b, "  %s\n          ", title)
		for _, l := range loads {
			fmt.Fprintf(&b, "  load=%.2f", l)
		}
		fmt.Fprintln(&b)
		for _, d := range r.dispatchers() {
			fmt.Fprintf(&b, "  %-8s", d)
			for _, l := range loads {
				c, _ := r.Cell(d, l)
				fmt.Fprintf(&b, "  %9.3f", get(c))
			}
			fmt.Fprintln(&b)
		}
	}
	panel("p50 turnaround time (median)", func(c FarmCell) float64 { return c.P50Turnaround })
	panel("p99 turnaround time (tail SLO)", func(c FarmCell) float64 { return c.P99Turnaround })
	return b.String()
}
