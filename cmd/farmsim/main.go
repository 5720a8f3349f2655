// Command farmsim simulates a farm of symbiosis-aware servers behind one
// dispatcher: a single Poisson stream of jobs is routed over N (optionally
// heterogeneous) servers by each of the selected dispatch policies, and
// per-policy mean/p95 turnaround, utilisation and empty fraction are
// reported, averaged over R replications. Loads are offered relative to
// the farm's aggregate FCFS maximum throughput.
//
// Usage:
//
//	farmsim [-servers 4] [-hetero] [-sched FCFS] [-estimator oracle]
//	        [-dispatchers random,rr,jsq,li,pd2] [-loads 0.5,0.8,0.95]
//	        [-jobs 20000] [-reps 3] [-seed 1] [-quantiles]
//	        [-mtbf 0] [-mttr 2.5] [-retries 5] [-retry-delay 0.5] [-checkpoint restart]
//	        [-parallel N] [-cache dir] [-csv dir] [-progress]
//
// A dispatcher or load listed twice in -dispatchers or -loads is a usage
// error (exit 2); dispatchers compare, and report, by their canonical
// names, so pd, pd2 and pd02 are one dispatcher. So is an unknown
// -sched, -estimator or -dispatchers name, reported before any
// performance table is built.
//
// -estimator replaces the oracle performance table with an online learner
// (sampler or pairwise, see internal/online): schedulers and the li
// dispatcher then decide over rates discovered at run time, while jobs
// still progress at the machine's true rates. -quantiles appends P50/P99
// turnaround panels to the report.
//
// The pd<d> dispatcher is power-of-d-choices: it probes d random
// distinct servers per arrival and places on the least-interfering of
// those by the same marginal-throughput criterion li applies to every
// server. A bare "pd" is pd2; pd<d> with d >= N reproduces li exactly,
// pd1 reproduces random.
//
// -mtbf > 0 switches on deterministic fault injection (internal/fault):
// every server fails and repairs on its own exponential
// mean-time-between-failures / mean-time-to-repair process, evicted jobs
// re-dispatch under the -checkpoint policy ("restart" redoes the lost
// work, "resume" keeps it) with at most -retries attempts and a
// doubling backoff starting at -retry-delay. The report then grows
// availability, goodput and redispatch panels. Fault streams derive
// from the per-replication seeds and the server index only, so every
// dispatcher and load faces the same outage trajectory.
//
// Every simulation runs on the farm's event engine
// (internal/farm.SimulateSharded), one event heap over the fleet, and
// the grid's cells and replications run through the shared runner
// engine: output is byte-identical at any -parallel value.
//
// farmsim exits non-zero on SIGINT/SIGTERM: the sweep is cancelled, the
// partial grid is discarded and no CSV is written (CSV writes go through
// a temp file and rename, so an interrupted run never leaves a partial
// file behind).
//
// -metrics collects the internal/metrics instrumentation (scheduler memo
// and pruning counters, server busy/occupancy gauges, dispatcher probe
// counts, learner observation counts) merged over the whole grid;
// simulation results are byte-identical with or without it. With -csv
// the merged snapshot is written as farm_metrics.csv next to farm.csv.
// -cpuprofile and -memprofile write runtime/pprof profiles of the run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"symbiosched/internal/exp"
	"symbiosched/internal/farm"
	"symbiosched/internal/fault"
	"symbiosched/internal/online"
	"symbiosched/internal/profiling"
	"symbiosched/internal/sched"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("farmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		servers     = fs.Int("servers", 4, "number of servers in the farm")
		hetero      = fs.Bool("hetero", false, "alternate SMT and quad-core servers (all-SMT otherwise)")
		schedName   = fs.String("sched", "FCFS", "per-server scheduler: FCFS, MAXIT, SRPT or MAXTP")
		estimator   = fs.String("estimator", "oracle", "per-server rate knowledge: "+strings.Join(online.Names, ", ")+" (non-oracle learns co-run rates online)")
		quantiles   = fs.Bool("quantiles", false, "also print P50/P99 turnaround panels")
		dispatchers = fs.String("dispatchers", strings.Join(farm.DispatcherNames, ","), "comma-separated dispatch policies (pd<d> = power-of-d-choices; a bare pd is pd2)")
		loads       = fs.String("loads", "0.5,0.8,0.95", "comma-separated offered loads relative to farm capacity")
		jobs        = fs.Int("jobs", 20000, "jobs per simulation")
		reps        = fs.Int("reps", 3, "replications (independent seeds) per cell")
		seed        = fs.Uint64("seed", 1, "base random seed")
		mtbf        = fs.Float64("mtbf", 0, "mean time between per-server failures in simulated time (0 = no fault injection)")
		mttr        = fs.Float64("mttr", 2.5, "mean time to repair a failed server (used when -mtbf > 0)")
		retries     = fs.Int("retries", 5, "retry cap per job: a crash victim past this many attempts is dropped")
		retryDelay  = fs.Float64("retry-delay", 0.5, "base re-dispatch backoff; attempt k waits delay*2^(k-1)")
		checkpoint  = fs.String("checkpoint", string(fault.Restart), "crash checkpoint policy: restart (redo lost work) or resume (keep progress)")
		parallel    = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size (results are identical at any value)")
		cacheDir    = fs.String("cache", "", "cache built performance databases as gob files in this directory")
		csvDir      = fs.String("csv", "", "also write the result grid as a CSV file into this directory")
		progress    = fs.Bool("progress", false, "print per-sweep progress to stderr")
		metricsF    = fs.Bool("metrics", false, "collect internal instrumentation (results unchanged; -csv adds farm_metrics.csv)")
		cpuProf     = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf     = fs.String("memprofile", "", "write a final heap profile of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	for _, c := range []struct {
		flag string
		v    int
	}{{"-servers", *servers}, {"-jobs", *jobs}, {"-reps", *reps}, {"-parallel", *parallel}} {
		if c.v < 1 {
			fmt.Fprintf(stderr, "farmsim: %s wants a count >= 1, got %d\n", c.flag, c.v)
			return 2
		}
	}
	// A repeated grid coordinate would run (and write) its cells twice.
	// Dispatchers compare by canonical name, so pd, pd2 and pd02 are one;
	// an unknown name is a usage error, caught before any table is built.
	var dispList []string
	for _, s := range strings.Split(*dispatchers, ",") {
		d, err := farm.NewDispatcher(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintf(stderr, "farmsim: -dispatchers: %v\n", err)
			return 2
		}
		name := d.Name()
		if slices.Contains(dispList, name) {
			fmt.Fprintf(stderr, "farmsim: -dispatchers lists %s twice\n", name)
			return 2
		}
		dispList = append(dispList, name)
	}
	var loadList []float64
	for _, s := range strings.Split(*loads, ",") {
		l, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || !(l > 0 && l < 1) {
			fmt.Fprintf(stderr, "farmsim: -loads wants fractions in (0,1), got %q\n", s)
			return 2
		}
		if slices.Contains(loadList, l) {
			fmt.Fprintf(stderr, "farmsim: -loads lists %g twice\n", l)
			return 2
		}
		loadList = append(loadList, l)
	}
	fcfg := fault.Config{
		MTBF:       *mtbf,
		MTTR:       *mttr,
		MaxRetries: *retries,
		RetryDelay: *retryDelay,
		Checkpoint: fault.Policy(*checkpoint),
	}
	if err := fcfg.Validate(); err != nil {
		fmt.Fprintf(stderr, "farmsim: %v\n", err)
		return 2
	}
	// So are unknown -sched and -estimator names.
	if !slices.Contains(sched.Names, *schedName) {
		fmt.Fprintf(stderr, "farmsim: -sched %q is not one of %s\n", *schedName, strings.Join(sched.Names, ", "))
		return 2
	}
	if !slices.Contains(online.Names, *estimator) {
		fmt.Fprintf(stderr, "farmsim: -estimator %q is not one of %s\n", *estimator, strings.Join(online.Names, ", "))
		return 2
	}

	cfg := exp.DefaultConfig()
	cfg.SimJobs = *jobs
	cfg.Seed = *seed
	cfg.Parallelism = *parallel
	cfg.CacheDir = *cacheDir
	cfg.Metrics = *metricsF
	if cfg.CacheDir != "" {
		if err := os.MkdirAll(cfg.CacheDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "farmsim: -cache %s: %v\n", cfg.CacheDir, err)
			return 1
		}
	}
	if *progress {
		cfg.Progress = func(sweep string, done, total int) {
			if done == total || done == 0 {
				fmt.Fprintf(stderr, "%-12s %d/%d\n", sweep, done, total)
			}
		}
	}
	env := exp.NewEnv(cfg)

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(stderr, "farmsim: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "farmsim: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	res, err := env.Run(ctx, exp.FarmScenario(exp.FarmOptions{
		Servers:      *servers,
		Hetero:       *hetero,
		Sched:        *schedName,
		Estimator:    *estimator,
		Dispatchers:  dispList,
		Loads:        loadList,
		Replications: *reps,
		Faults:       fcfg,
	}))
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(stderr, "farmsim: interrupted, partial results discarded: %v\n", err)
		} else {
			fmt.Fprintf(stderr, "farmsim: %v\n", err)
		}
		return 1
	}
	r := res.Value.(*exp.FarmResult)
	fmt.Fprint(stdout, res.Text)
	if *quantiles {
		fmt.Fprint(stdout, r.FormatQuantiles())
	}
	if *csvDir != "" {
		for _, t := range res.Tables {
			if err := t.WriteFile(*csvDir); err != nil {
				fmt.Fprintf(stderr, "farmsim: csv: %v\n", err)
				return 1
			}
		}
	}
	if r.Metrics != nil {
		if *csvDir != "" {
			fmt.Fprintf(stdout, "metrics: %d rows written to farm_metrics.csv\n", len(r.Metrics.Rows))
		} else {
			fmt.Fprintf(stdout, "metrics: %d rows collected (add -csv to export)\n", len(r.Metrics.Rows))
		}
	}
	return 0
}
