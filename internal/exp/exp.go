// Package exp contains the paper's evaluation as registered scenarios:
// one per table and figure, each reproducing the corresponding
// rows/series from the performance database and the analyses in
// internal/core, internal/sched, internal/eventsim and
// internal/queueing, plus the extension studies (farm, online, hetfarm,
// burst, slo) the same models support. Every study registers itself in
// the internal/scenario registry (scenarios.go); cmd/symbiosim is
// registry dispatch (`run <name>`, `list`) and the root-level benchmarks
// are thin wrappers over the same drivers.
//
// Every driver returns a structured result whose Format() prints the
// quantities the paper reports, with the paper's numbers quoted
// alongside for comparison (also recorded in EXPERIMENTS.md). The
// scenario carries the same data as typed-column tables, built where the
// result is assembled; the golden tests pin their CSV bytes and the
// report text.
//
// Sweeps run on internal/runner: Config.Parallelism bounds every worker
// pool (perfdb builds, suite analyses, Section VI simulations) without
// changing any result — item seeds derive from enumeration indices and
// reductions fold in index order, so output is bit-identical at any
// parallelism level. Config.CacheDir enables the on-disk perfdb table
// cache, and Config.Progress observes per-sweep progress.
package exp

import (
	"context"
	"fmt"
	"sync"
	"time"

	"symbiosched/internal/core"
	"symbiosched/internal/perfdb"
	"symbiosched/internal/program"
	"symbiosched/internal/runner"
	"symbiosched/internal/scenario"
	"symbiosched/internal/uarch"
)

// Config parameterises the experiment environment.
type Config struct {
	// Suite is the benchmark suite (default program.Suite()).
	Suite []program.Profile
	// FCFSJobs sizes the FCFS throughput simulations (default 20_000).
	FCFSJobs int
	// SimJobs sizes the Section VI event simulations (default 20_000).
	SimJobs int
	// SampleWorkloads, when > 0, uses only every (total/Sample)-th
	// workload in the heavyweight Section VI sweeps.
	SampleWorkloads int
	// Seed drives all randomness (default 1).
	Seed uint64
	// Parallelism bounds every sweep's worker pool (perfdb builds, suite
	// sweeps, Section VI simulations). Zero means all CPUs. Results are
	// independent of the value; only wall time changes.
	Parallelism int
	// CacheDir, when non-empty, caches built perfdb tables as gob files
	// in this directory so the expensive database build amortises across
	// runs.
	CacheDir string
	// Progress, when set, receives per-sweep progress: the sweep's name
	// and how many of its items have completed.
	Progress func(sweep string, done, total int)
	// Metrics, when set, instruments the farm scenario's simulations
	// (internal/metrics): its result carries a merged snapshot and it
	// emits an extra "farm_metrics" CSV table. Instruments only observe
	// — every scenario's tables and report text are byte-identical with
	// Metrics on or off (pinned by test).
	Metrics bool
}

// DefaultConfig returns the paper's default setup.
func DefaultConfig() Config {
	return Config{
		Suite:    program.Suite(),
		FCFSJobs: 20_000,
		SimJobs:  20_000,
		Seed:     1,
	}
}

// Machine is one of the two configurations of Section V-A, both at
// their uarch defaults.
type Machine int

const (
	SMT  Machine = iota // the 4-context SMT core
	Quad                // the quad-core multicore
)

// machines lists both configurations in report order.
var machines = []Machine{SMT, Quad}

// String returns the machine's short label: "smt" or "quad".
func (m Machine) String() string { return [...]string{"smt", "quad"}[m] }

// Env carries lazily built, cached performance tables and suite analyses
// so that drivers sharing inputs (Figures 1-3, Table II) compute them once.
type Env struct {
	Cfg Config

	mu     sync.Mutex
	tables [2]*perfdb.Table       // indexed by Machine
	sweeps [2]*core.SuiteAnalysis // indexed by Machine
}

// NewEnv returns an Env over the given config (zero-value fields are
// filled with defaults).
func NewEnv(cfg Config) *Env {
	def := DefaultConfig()
	if cfg.Suite == nil {
		cfg.Suite = def.Suite
	}
	if cfg.FCFSJobs == 0 {
		cfg.FCFSJobs = def.FCFSJobs
	}
	if cfg.SimJobs == 0 {
		cfg.SimJobs = def.SimJobs
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	return &Env{Cfg: cfg}
}

// runCfg returns the runner configuration for one named sweep, wiring the
// Parallelism knob and the Progress callback.
func (e *Env) runCfg(sweep string) runner.Config {
	rc := runner.Config{Parallelism: e.Cfg.Parallelism}
	if p := e.Cfg.Progress; p != nil {
		var done, total int
		rc.Hooks.Start = func(n int) { total = n; p(sweep, 0, n) }
		rc.Hooks.Item = func(int, time.Duration) { // serialised by the runner
			done++
			p(sweep, done, total)
		}
	}
	return rc
}

// Table returns (building once) machine m's performance database,
// loading it from Cfg.CacheDir when enabled.
func (e *Env) Table(m Machine) *perfdb.Table {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tables[m] == nil {
		e.tables[m] = e.build(m)
	}
	return e.tables[m]
}

// build builds (or loads from the cache directory) machine m's perfdb
// table. The fingerprint must encode every machine parameter so a config
// change can never resurrect a stale cache entry.
func (e *Env) build(m Machine) *perfdb.Table {
	var model perfdb.Model
	var fingerprint string
	if m == SMT {
		machine := uarch.DefaultSMT()
		model, fingerprint = perfdb.SMTModel{Machine: machine}, fmt.Sprintf("%+v", machine)
	} else {
		machine := uarch.DefaultMulticore()
		model, fingerprint = perfdb.MulticoreModel{Machine: machine}, fmt.Sprintf("%+v", machine)
	}
	rc := e.runCfg("perfdb/" + m.String())
	if e.Cfg.CacheDir == "" {
		t, err := perfdb.BuildWith(context.Background(), rc, model, e.Cfg.Suite)
		if err != nil {
			panic(err) // unreachable: the background context never cancels
		}
		return t
	}
	t, _, err := perfdb.LoadOrBuild(context.Background(), rc, model, e.Cfg.Suite, e.Cfg.CacheDir, fingerprint)
	if err != nil {
		panic(fmt.Sprintf("exp: perfdb cache %s: %v", e.Cfg.CacheDir, err))
	}
	return t
}

// Sweep returns (running once) the N=4 all-workloads analysis on
// machine m.
func (e *Env) Sweep(m Machine) (*core.SuiteAnalysis, error) {
	t := e.Table(m)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sweeps[m] == nil {
		sa, err := core.AnalyzeSuite(t, 4, core.AnalyzeConfig{
			FCFS:   core.FCFSConfig{Jobs: e.Cfg.FCFSJobs},
			Runner: e.runCfg("sweep/" + m.String()),
		})
		if err != nil {
			return nil, err
		}
		e.sweeps[m] = sa
	}
	return e.sweeps[m], nil
}

// perMachine builds one result per configuration, SMT then quad, from
// the machine's N=4 suite sweep.
func perMachine[R any](e *Env, build func(m Machine, sa *core.SuiteAnalysis) R) (smt, quad R, err error) {
	var out [2]R
	for _, m := range machines {
		sa, err := e.Sweep(m)
		if err != nil {
			return smt, quad, err
		}
		out[m] = build(m, sa)
	}
	return out[SMT], out[Quad], nil
}

// Run executes scenario s over e with the Env's parallelism and
// progress wiring.
func (e *Env) Run(ctx context.Context, s *scenario.Scenario) (*scenario.Result, error) {
	return s.Run(ctx, e, e.runCfg(s.Name))
}

// result runs scenario s over e and returns its typed value.
func result[T any](ctx context.Context, e *Env, s *scenario.Scenario) (T, error) {
	res, err := e.Run(ctx, s)
	if err != nil {
		var zero T
		return zero, err
	}
	return res.Value.(T), nil
}
