// Command symbiosim reproduces the tables and figures of "Revisiting
// Symbiotic Job Scheduling" (Eyerman, Michaud, Rogiest; ISPASS 2015) and
// runs the extension scenarios built on the same models.
//
// Usage:
//
//	symbiosim [flags] list
//	symbiosim [flags] run <scenario>... | all
//	symbiosim diff [-db dir] [-tol f] <ref> <ref>
//	symbiosim resultdb [-db dir] list | show <ref>
//	symbiosim perfgate <parent-output> <change-output>
//	symbiosim trend [-db dir] -scenario name [-metric substr] [-last N] [-csv dir]
//
// Scenarios come from the internal/scenario registry (see `symbiosim
// list`): the paper's table1/fig1-fig6/table2, the n8/fairness/uarch
// analyses, the makespan/farm/online extensions, and the hetfarm,
// megafarm (power-of-d dispatch on the farm's event engine), burst and
// slo studies.
//
// -parallel bounds the worker pool of every sweep (results are identical
// at any value), -cache caches built performance databases on disk,
// -csv writes every scenario table as CSV, and -progress reports
// per-sweep progress on stderr. -metrics turns on the internal/metrics
// instrumentation (scenarios that support it emit an extra *_metrics
// table; simulation results are byte-identical either way), -record
// stores each scenario's tables and metrics as a content-addressed
// record in the given resultdb directory (created if absent), and
// -cpuprofile/-memprofile write runtime/pprof profiles of the run. The
// diff, resultdb and trend subcommands read an existing record store;
// see their -h output and internal/resultdb. Benchmark timings are not
// stored: perfgate compares two files of `go test -bench` output, a
// parent's and a change's (perf/gate.sh pairs them on one machine).
//
// symbiosim exits non-zero on SIGINT/SIGTERM: the in-flight scenario is
// cancelled and its partial work discarded. Scenario tables are written
// through a temp file and rename, so an interrupted run never leaves a
// partial CSV behind.
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
	"strings"
	"syscall"
	"time"

	"symbiosched/internal/exp"
	"symbiosched/internal/profiling"
	"symbiosched/internal/resultdb"
	"symbiosched/internal/scenario"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	// The resultdb subcommands carry their own flag sets; dispatch them
	// before the scenario-runner flags are parsed.
	if len(args) > 0 {
		switch args[0] {
		case "diff":
			return runDiffCmd(args[1:], stdout, stderr)
		case "resultdb":
			return runResultDBCmd(args[1:], stdout, stderr)
		case "perfgate":
			return runPerfGateCmd(args[1:], stdout, stderr)
		case "trend":
			return runTrendCmd(args[1:], stdout, stderr)
		}
	}

	fs := flag.NewFlagSet("symbiosim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fcfsJobs = fs.Int("fcfs-jobs", 20000, "jobs per FCFS throughput simulation")
		simJobs  = fs.Int("sim-jobs", 20000, "jobs per Section VI event simulation")
		sample   = fs.Int("sample", 99, "workloads sampled for fig5/fig6/fairness/makespan/online (0 = all 495)")
		seed     = fs.Uint64("seed", 1, "random seed")
		csvDir   = fs.String("csv", "", "also write every scenario table as a CSV file into this directory")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size for every sweep (results are identical at any value)")
		cacheDir = fs.String("cache", "", "cache built performance databases as gob files in this directory")
		progress = fs.Bool("progress", false, "print per-sweep progress to stderr")
		metricsF = fs.Bool("metrics", false, "collect internal instrumentation (extra *_metrics tables; results unchanged)")
		record   = fs.String("record", "", "store each scenario's tables and metrics as a record in this resultdb directory")
		note     = fs.String("note", "", "free-form annotation carried on -record records")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a final heap profile of the run to this file")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: symbiosim [flags] list | run <scenario>... | diff | resultdb | perfgate | trend\n")
		fmt.Fprintf(stderr, "scenarios: %s\n", strings.Join(scenario.Names(), ", "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	for _, c := range []struct {
		flag string
		v    int
	}{{"-fcfs-jobs", *fcfsJobs}, {"-sim-jobs", *simJobs}, {"-parallel", *parallel}} {
		if c.v < 1 {
			fmt.Fprintf(stderr, "symbiosim: %s wants a count >= 1, got %d\n", c.flag, c.v)
			return 2
		}
	}
	if *sample < 0 {
		fmt.Fprintf(stderr, "symbiosim: -sample wants a count >= 0 (0 = all workloads), got %d\n", *sample)
		return 2
	}

	switch cmd := fs.Arg(0); cmd {
	case "list":
		for _, s := range scenario.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", s.Name, s.Desc)
		}
		return 0
	case "run":
		// handled below
	default:
		fmt.Fprintf(stderr, "symbiosim: unknown command %q (want list, run, diff, resultdb, perfgate or trend)\n", cmd)
		fs.Usage()
		return 2
	}
	if fs.NArg() < 2 {
		fmt.Fprintf(stderr, "symbiosim: run wants at least one scenario name\n")
		fs.Usage()
		return 2
	}

	cfg := exp.DefaultConfig()
	cfg.FCFSJobs = *fcfsJobs
	cfg.SimJobs = *simJobs
	cfg.SampleWorkloads = *sample
	cfg.Seed = *seed
	cfg.Parallelism = *parallel
	cfg.CacheDir = *cacheDir
	cfg.Metrics = *metricsF
	if cfg.CacheDir != "" {
		if err := os.MkdirAll(cfg.CacheDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "symbiosim: -cache %s: %v\n", cfg.CacheDir, err)
			return 1
		}
	}
	if *progress {
		cfg.Progress = func(sweep string, done, total int) {
			// Print ~1%-granularity updates plus the endpoints.
			step := total / 100
			if step < 1 {
				step = 1
			}
			if done%step != 0 && done != total {
				return
			}
			fmt.Fprintf(stderr, "\r%-12s %d/%d", sweep, done, total)
			if done == total {
				fmt.Fprintln(stderr)
			}
		}
	}
	env := exp.NewEnv(cfg)

	var names []string
	for _, arg := range fs.Args()[1:] {
		if arg == "all" {
			names = scenario.Names()
			break
		}
		names = append(names, arg)
	}
	// Validate every name up front: a typo in the last scenario must not
	// surface only after the earlier ones spent minutes running.
	for _, name := range names {
		if _, ok := scenario.Lookup(name); !ok {
			fmt.Fprintf(stderr, "symbiosim: unknown scenario %q (want one of %s)\n",
				name, strings.Join(scenario.Names(), ", "))
			return 2
		}
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(stderr, "symbiosim: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "symbiosim: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	var store *resultdb.Store
	if *record != "" {
		if err := os.MkdirAll(*record, 0o755); err != nil {
			fmt.Fprintf(stderr, "symbiosim: -record %s: %v\n", *record, err)
			return 1
		}
		store = &resultdb.Store{Dir: *record}
	}
	// The record key hashes the result-affecting configuration;
	// -parallel and -cache are excluded because results are identical at
	// any value.
	cfgHash := configHash("run",
		fmt.Sprint(*fcfsJobs), fmt.Sprint(*simJobs), fmt.Sprint(*sample),
		fmt.Sprint(*seed), fmt.Sprint(*metricsF))

	for _, name := range names {
		start := time.Now()
		res, err := exp.RunScenario(ctx, env, name)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(stderr, "symbiosim: %s: interrupted, partial results discarded: %v\n", name, err)
			} else {
				fmt.Fprintf(stderr, "symbiosim: %s: %v\n", name, err)
			}
			return 1
		}
		fmt.Fprint(stdout, res.Text)
		if *csvDir != "" {
			for _, t := range res.Tables {
				if err := t.WriteFile(*csvDir); err != nil {
					fmt.Fprintf(stderr, "symbiosim: %s: csv: %v\n", name, err)
					return 1
				}
			}
		}
		if store != nil {
			tables, mrows := recordTables(res.Tables)
			rec := &resultdb.Record{
				Scenario:   name,
				ConfigHash: cfgHash,
				Commit:     currentCommit(),
				When:       time.Now().UTC().Format(time.RFC3339),
				Note:       *note,
				Tables:     tables,
				Metrics:    mrows,
			}
			recName, err := store.Put(rec)
			if err != nil {
				fmt.Fprintf(stderr, "symbiosim: %s: record: %v\n", name, err)
				return 1
			}
			fmt.Fprintf(stdout, "recorded as %s\n", recName)
		}
		fmt.Fprintf(stdout, "(%s took %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
