package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"symbiosched/internal/core"
	"symbiosched/internal/eventsim"
	"symbiosched/internal/farm"
	"symbiosched/internal/fault"
	"symbiosched/internal/metrics"
	"symbiosched/internal/online"
	"symbiosched/internal/perfdb"
	"symbiosched/internal/program"
	"symbiosched/internal/runner"
	"symbiosched/internal/sched"
	"symbiosched/internal/stats"
	"symbiosched/internal/uarch"
	"symbiosched/internal/workload"
)

// The workloads call only the library entry points the roadmap keeps:
// perfdb.BuildWith, core.FCFS, sched.New, online.New, eventsim.Latency,
// farm.Replicate, farm.ReplicateSharded and farm.SimulateSharded. None
// calls farm.Simulate: the roadmap retires it, and learnfarm reaches the
// serial engine through farm.Replicate, so the benchmark measures that
// change instead of breaking on it.

// size is a workload's input size. The benchmark runs the full sizes;
// the tests run the small ones.
type size struct {
	Name      string // "full" or "small", the reference-value key
	Servers   int    // farm servers (megafarm, learnfarm)
	Shards    int    // megafarm shards
	Workloads int    // fig5: N=4 job mixes spread over all C(12,4)
	Jobs      int    // jobs per simulation call
}

// workloadDef is one benchmark workload: one closed-loop chain of
// simulation calls at a fixed input size.
type workloadDef struct {
	name        string
	full, small size
	// sharded marks the workload on the sharded engine, the only one the
	// traced run also repeats on every CPU.
	sharded bool
	setup   func(sz size, seed uint64, tr *tracer) (bench, error)
}

var workloads = map[string]*workloadDef{
	"megafarm": {
		name:    "megafarm",
		full:    size{Name: "full", Servers: 100_000, Shards: 64, Jobs: 1_000_000},
		small:   size{Name: "small", Servers: 512, Shards: 8, Jobs: 20_000},
		sharded: true,
		setup:   setupMegafarm,
	},
	"fig5": {
		name:  "fig5",
		full:  size{Name: "full", Workloads: 7, Jobs: 25_000},
		small: size{Name: "small", Workloads: 2, Jobs: 4_000},
		setup: setupFig5,
	},
	"learnfarm": {
		name:  "learnfarm",
		full:  size{Name: "full", Servers: 16, Jobs: 25_000},
		small: size{Name: "small", Servers: 4, Jobs: 4_000},
		setup: setupLearnfarm,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// bench is a set-up workload.
type bench interface {
	// simulate runs the workload's chain of simulation calls once, with
	// fresh schedulers, learners and dispatchers. The returned rep is
	// never nil; on error it holds the calls that completed.
	simulate(in instr) (*rep, error)
}

// instr selects a repetition's instrumentation. The zero value is the
// uninstrumented form every timed run uses.
type instr struct {
	count bool       // turn the program's own counters on
	tr    *tracer    // wrap the layer interfaces with timers
	probe *heapProbe // measure the live heap at fixed points
}

// rep is one repetition of a workload's call chain.
type rep struct {
	stats []simStats
	// calls holds each simulation call's host time and sim their sum;
	// allocs and bytes are the heap allocations made inside the calls.
	calls         []time.Duration
	sim           time.Duration
	allocs, bytes uint64
	jobs          int               // completed simulated jobs
	counts        *metrics.Snapshot // counting runs: the program's counters
}

// measure runs fn, one simulation call and nothing else, adding its host
// time and heap allocations to r, under a span named name when traced.
func (r *rep) measure(tr *tracer, name string, fn func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := tr.begin(name)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	tr.end(sp)
	r.calls = append(r.calls, d)
	r.sim += d
	runtime.ReadMemStats(&after)
	r.allocs += after.Mallocs - before.Mallocs
	r.bytes += after.TotalAlloc - before.TotalAlloc
	return err
}

const (
	// fcfsJobs sizes every core.FCFS capacity calibration, as the default
	// exp.Config.FCFSJobs does for the scenarios.
	fcfsJobs = 20_000
	// sizeShape 4 draws Erlang-4 job sizes: the paper's jobs of
	// "approximately the same size".
	sizeShape = 4
)

// farmTypes is the job mix of the two farm workloads: the first four
// suite benchmarks, as the farm scenarios use.
var farmTypes = workload.Workload{0, 1, 2, 3}

// inputSeeds derives n input-stream seeds from the run's seed, so
// neighbouring seeds give unrelated streams and no stream gets the zero
// seed the simulators would replace with 1.
func inputSeeds(seed uint64, n int) []uint64 {
	rng := stats.NewRNG(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = max(rng.Uint64(), 1)
	}
	return out
}

func buildTable(tr *tracer, m perfdb.Model) (*perfdb.Table, error) {
	defer tr.end(tr.begin("perfdb.BuildWith"))
	return perfdb.BuildWith(context.Background(), runner.Config{}, m, program.Suite())
}

// fcfsCapacity is table t's FCFS maximum throughput on job mix w, the
// unit every workload's load is given in.
func fcfsCapacity(tr *tracer, t *perfdb.Table, w workload.Workload) float64 {
	defer tr.end(tr.begin("core.FCFS"))
	return core.FCFS(t, w, core.FCFSConfig{Jobs: fcfsJobs, Seed: 1}).Throughput
}

// megafarm is the roadmap's scale run: FCFS SMT servers behind pd2
// dispatch at 0.8 of aggregate FCFS capacity on the sharded engine with
// its default workers (one per processor) and adaptive slabs, through
// farm.ReplicateSharded (the farmsim -shards path). Host time goes to the
// engine and to PowerOfD.Pick; the schedulers and learners do no work. It
// is the one workload with a large heap.
type megafarm struct {
	specs  []farm.ServerSpec
	cfg    farm.Config
	shards int
}

func setupMegafarm(sz size, seed uint64, tr *tracer) (bench, error) {
	defer tr.end(tr.begin("setup"))
	t, err := buildTable(tr, perfdb.SMTModel{Machine: uarch.DefaultSMT()})
	if err != nil {
		return nil, err
	}
	perServer := fcfsCapacity(tr, t, farmTypes)
	newSched := func(rs online.RateSource) (sched.Scheduler, error) { return sched.New("FCFS", rs, farmTypes) }
	specs := make([]farm.ServerSpec, sz.Servers)
	for i := range specs {
		specs[i] = farm.ServerSpec{Table: t, Sched: newSched}
	}
	return &megafarm{
		specs: specs,
		cfg: farm.Config{
			Lambda:    0.8 * perServer * float64(sz.Servers),
			Jobs:      sz.Jobs,
			Warmup:    sz.Jobs / 10,
			SizeShape: sizeShape,
			Seed:      inputSeeds(seed, 1)[0],
		},
		shards: sz.Shards,
	}, nil
}

func (m *megafarm) simulate(in instr) (*rep, error) {
	cfg := m.cfg
	cfg.Metrics = in.count
	sc := farm.ShardConfig{Shards: m.shards}
	r := &rep{}
	var res *farm.Result
	var err error
	if in.tr == nil && in.probe == nil {
		err = r.measure(nil, "", func() error {
			rp, err := farm.ReplicateSharded(m.specs, "pd2", farmTypes, cfg, sc, 0)
			res = rp.Result
			return err
		})
	} else {
		// ReplicateSharded builds its dispatcher from a name, so the traced
		// and probed runs wrap one and call the engine with the seed
		// ReplicateSharded would derive.
		d, derr := farm.NewDispatcher("pd2")
		if derr != nil {
			return r, derr
		}
		d = in.tr.wrapDispatcher(d)
		if in.probe != nil {
			d = probedDispatcher{Dispatcher: d, p: in.probe}
		}
		specs := in.tr.wrapSpecs(m.specs)
		cfg.Seed = farm.ReplicationSeed(cfg.Seed, 0)
		err = r.measure(in.tr, "farm.SimulateSharded", func() error {
			var err error
			res, err = farm.SimulateSharded(specs, d, farmTypes, cfg, sc)
			return err
		})
	}
	if err != nil {
		return r, fmt.Errorf("megafarm: %w", err)
	}
	r.addFarm("megafarm", cfg, res)
	return r, nil
}

// learnfarm is a small heterogeneous fleet that learns and fails: SMT
// and quad-core servers alternate, each running MAXIT over its own
// pairwise learner behind li dispatch at load 0.85, with faults on. It
// runs through farm.Replicate, the path of the farm, hetfarm, burst and
// slo scenarios. Every learner observation moves the rate epoch, so the
// MAXIT memo and the marginal-rate cache almost never hit and the lazy
// pairwise re-solves reached through li's probes dominate.
type learnfarm struct {
	specs []farm.ServerSpec
	cfg   farm.Config
}

func setupLearnfarm(sz size, seed uint64, tr *tracer) (bench, error) {
	defer tr.end(tr.begin("setup"))
	smt, err := buildTable(tr, perfdb.SMTModel{Machine: uarch.DefaultSMT()})
	if err != nil {
		return nil, err
	}
	quad, err := buildTable(tr, perfdb.MulticoreModel{Machine: uarch.DefaultMulticore()})
	if err != nil {
		return nil, err
	}
	tables := []*perfdb.Table{smt, quad}
	caps := []float64{fcfsCapacity(tr, smt, farmTypes), fcfsCapacity(tr, quad, farmTypes)}
	newSched := func(rs online.RateSource) (sched.Scheduler, error) { return sched.New("MAXIT", rs, farmTypes) }
	specs := make([]farm.ServerSpec, sz.Servers)
	total := 0.0
	for i := range specs {
		t := tables[i%len(tables)]
		total += caps[i%len(tables)]
		specs[i] = farm.ServerSpec{
			Table:     t,
			Sched:     newSched,
			Estimator: func(seed uint64) (online.Estimator, error) { return online.New("pairwise", t, seed) },
		}
	}
	return &learnfarm{specs: specs, cfg: farm.Config{
		Lambda:    0.85 * total,
		Jobs:      sz.Jobs,
		Warmup:    sz.Jobs / 10,
		SizeShape: sizeShape,
		Seed:      inputSeeds(seed, 1)[0],
		Faults: fault.Config{
			MTBF:       100,
			MTTR:       2.5,
			MaxRetries: 5,
			RetryDelay: 0.5,
			Checkpoint: fault.Restart,
		},
	}}, nil
}

func (l *learnfarm) simulate(in instr) (*rep, error) {
	cfg := l.cfg
	cfg.Metrics = in.count
	specs := in.probe.wrapSpecs(in.tr.wrapSpecs(l.specs))
	r := &rep{}
	var res *farm.Result
	err := r.measure(in.tr, "farm.Replicate", func() error {
		rp, err := farm.Replicate(specs, "li", farmTypes, cfg, 0)
		res = rp.Result
		return err
	})
	if err != nil {
		return r, fmt.Errorf("learnfarm: %w", err)
	}
	r.addFarm("learnfarm", cfg, res)
	return r, nil
}

// addFarm records one farm call's result.
func (r *rep) addFarm(label string, cfg farm.Config, res *farm.Result) {
	r.stats = append(r.stats, simStats{
		Label:          label,
		Farm:           true,
		Jobs:           cfg.Jobs,
		Warmup:         cfg.Warmup,
		Completed:      res.Completed,
		Counted:        res.Counted,
		Dropped:        res.Dropped,
		Redispatches:   res.Redispatches,
		MeanTurnaround: res.MeanTurnaround,
		P99Turnaround:  res.P99Turnaround,
		Throughput:     res.Throughput,
		Utilisation:    res.Utilisation,
		Elapsed:        res.Elapsed,
		Availability:   res.Availability,
		Goodput:        res.Goodput,
	})
	r.jobs += res.Completed
	if res.Metrics != nil {
		r.counts = &metrics.Snapshot{}
		r.counts.Merge(res.Metrics)
		r.counts.Merge(res.EngineStats)
	}
}

// fig5 is the paper's Section VI latency experiment on one SMT server:
// MAXIT, SRPT and MAXTP over a fixed handful of N=4 job mixes spread
// across all 495, each at load 0.95 of its own FCFS capacity, through
// eventsim.Latency. Select on near-saturated queues takes most of the
// host time, with the static-rate memo and pruning live; no farm engine,
// dispatcher or learner runs.
type fig5 struct {
	table  *perfdb.Table
	mixes  []workload.Workload
	lambda []float64 // per mix: 0.95 of its FCFS capacity
	seeds  []uint64  // per mix, shared by its schedulers
	jobs   int
}

var fig5Scheds = []string{"MAXIT", "SRPT", "MAXTP"}

func setupFig5(sz size, seed uint64, tr *tracer) (bench, error) {
	defer tr.end(tr.begin("setup"))
	t, err := buildTable(tr, perfdb.SMTModel{Machine: uarch.DefaultSMT()})
	if err != nil {
		return nil, err
	}
	all := workload.EnumerateWorkloads(len(t.Suite()), 4)
	f := &fig5{table: t, seeds: inputSeeds(seed, sz.Workloads), jobs: sz.Jobs}
	for i := 0; i < sz.Workloads; i++ {
		w := all[i*len(all)/sz.Workloads]
		f.mixes = append(f.mixes, w)
		f.lambda = append(f.lambda, 0.95*fcfsCapacity(tr, t, w))
	}
	// Scheduler construction, MAXTP's LP above all, is set-up work every
	// simulation pays, so one full set is built here for setup_s. Each
	// repetition builds its own set outside the timed calls, because
	// MAXTP carries run state.
	if _, err := f.schedulers(tr); err != nil {
		return nil, err
	}
	return f, nil
}

// schedulers builds one fresh scheduler per call, in call order: mixes
// outer, fig5Scheds inner.
func (f *fig5) schedulers(tr *tracer) ([]sched.Scheduler, error) {
	out := make([]sched.Scheduler, 0, len(f.mixes)*len(fig5Scheds))
	for _, w := range f.mixes {
		for _, name := range fig5Scheds {
			sp := tr.begin("sched.New")
			s, err := sched.New(name, f.table, w)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("fig5 %s %s: %w", w.Key(), name, err)
			}
			out = append(out, s)
		}
	}
	return out, nil
}

func (f *fig5) simulate(in instr) (*rep, error) {
	r := &rep{}
	scheds, err := f.schedulers(nil)
	if err != nil {
		return r, err
	}
	var col *metrics.Collector
	if in.count {
		col = metrics.New()
	}
	for i, s := range scheds {
		wi := i / len(fig5Scheds)
		w := f.mixes[wi]
		if col != nil {
			sched.AttachMetrics(s, sched.NewMetrics(col))
		}
		s = in.probe.wrapSched(in.tr.wrapSched(s, nil))
		cfg := eventsim.LatencyConfig{
			Lambda:    f.lambda[wi],
			Jobs:      f.jobs,
			Warmup:    f.jobs / 10,
			SizeShape: sizeShape,
			Seed:      f.seeds[wi],
		}
		var res *eventsim.Result
		err := r.measure(in.tr, "eventsim.Latency", func() error {
			var err error
			res, err = eventsim.Latency(f.table, w, s, cfg)
			return err
		})
		if err != nil {
			return r, fmt.Errorf("fig5 %s %s: %w", w.Key(), s.Name(), err)
		}
		r.stats = append(r.stats, simStats{
			Label:          w.Key() + "/" + s.Name(),
			Jobs:           cfg.Jobs,
			Warmup:         cfg.Warmup,
			Completed:      res.Completed,
			MeanTurnaround: res.MeanTurnaround,
			Throughput:     res.Throughput,
			Utilisation:    res.Utilisation / float64(f.table.K()), // busy contexts → fraction
			Elapsed:        res.Elapsed,
		})
		r.jobs += res.Completed
	}
	if col != nil {
		r.counts = col.Snapshot()
	}
	return r, nil
}
