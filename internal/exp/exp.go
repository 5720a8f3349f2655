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
// Every driver returns a structured result plus a Format() string that
// prints the same quantities the paper reports, with the paper's numbers
// quoted alongside for comparison (also recorded in EXPERIMENTS.md); the
// scenario layer carries the same data as typed-column tables whose CSV
// bytes the golden tests pin.
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
	"symbiosched/internal/uarch"
)

// Config parameterises the experiment environment.
type Config struct {
	// Suite is the benchmark suite (default program.Suite()).
	Suite []program.Profile
	// SMT and Quad are the two machine configurations of Section V-A.
	SMT  uarch.SMTMachine
	Quad uarch.MulticoreMachine
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
	// Metrics, when set, instruments the simulation-backed scenarios
	// (internal/metrics): instrumented results carry a merged snapshot
	// and their scenarios emit an extra "<table>_metrics" CSV table.
	// Instruments only observe — the scenario tables and Format() text
	// are byte-identical with Metrics on or off (pinned by test).
	Metrics bool
}

// DefaultConfig returns the paper's default setup.
func DefaultConfig() Config {
	return Config{
		Suite:    program.Suite(),
		SMT:      uarch.DefaultSMT(),
		Quad:     uarch.DefaultMulticore(),
		FCFSJobs: 20_000,
		SimJobs:  20_000,
		Seed:     1,
	}
}

// Env carries lazily built, cached performance tables and suite analyses
// so that drivers sharing inputs (Figures 1-3, Table II) compute them once.
type Env struct {
	Cfg Config

	mu        sync.Mutex
	smtTable  *perfdb.Table
	quadTable *perfdb.Table
	smtSweep  *core.SuiteAnalysis
	quadSweep *core.SuiteAnalysis
}

// NewEnv returns an Env over the given config (zero-value fields are
// filled with defaults).
func NewEnv(cfg Config) *Env {
	def := DefaultConfig()
	if cfg.Suite == nil {
		cfg.Suite = def.Suite
	}
	if cfg.SMT.Threads == 0 {
		cfg.SMT = def.SMT
	}
	if cfg.Quad.Cores == 0 {
		cfg.Quad = def.Quad
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

// SMTTable returns (building once) the SMT performance database, loading
// it from Cfg.CacheDir when enabled.
func (e *Env) SMTTable() *perfdb.Table {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.smtTable == nil {
		e.smtTable = e.table(perfdb.SMTModel{Machine: e.Cfg.SMT}, fmt.Sprintf("%+v", e.Cfg.SMT), "perfdb/smt")
	}
	return e.smtTable
}

// QuadTable returns (building once) the quad-core performance database,
// loading it from Cfg.CacheDir when enabled.
func (e *Env) QuadTable() *perfdb.Table {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.quadTable == nil {
		e.quadTable = e.table(perfdb.MulticoreModel{Machine: e.Cfg.Quad}, fmt.Sprintf("%+v", e.Cfg.Quad), "perfdb/quad")
	}
	return e.quadTable
}

// table builds (or loads from the cache directory) one perfdb table. The
// fingerprint must encode every machine parameter so a config change can
// never resurrect a stale cache entry.
func (e *Env) table(m perfdb.Model, fingerprint, sweep string) *perfdb.Table {
	rc := e.runCfg(sweep)
	if e.Cfg.CacheDir == "" {
		t, err := perfdb.BuildWith(context.Background(), rc, m, e.Cfg.Suite)
		if err != nil {
			panic(err) // unreachable: the background context never cancels
		}
		return t
	}
	t, _, err := perfdb.LoadOrBuild(context.Background(), rc, m, e.Cfg.Suite, e.Cfg.CacheDir, fingerprint)
	if err != nil {
		panic(fmt.Sprintf("exp: perfdb cache %s: %v", e.Cfg.CacheDir, err))
	}
	return t
}

// SMTSweep returns (running once) the N=4 all-workloads analysis on the
// SMT table.
func (e *Env) SMTSweep() (*core.SuiteAnalysis, error) {
	t := e.SMTTable()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.smtSweep == nil {
		sa, err := core.AnalyzeSuite(t, 4, core.AnalyzeConfig{
			FCFS:   core.FCFSConfig{Jobs: e.Cfg.FCFSJobs},
			Runner: e.runCfg("sweep/smt"),
		})
		if err != nil {
			return nil, err
		}
		e.smtSweep = sa
	}
	return e.smtSweep, nil
}

// QuadSweep returns (running once) the N=4 all-workloads analysis on the
// quad-core table.
func (e *Env) QuadSweep() (*core.SuiteAnalysis, error) {
	t := e.QuadTable()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.quadSweep == nil {
		sa, err := core.AnalyzeSuite(t, 4, core.AnalyzeConfig{
			FCFS:   core.FCFSConfig{Jobs: e.Cfg.FCFSJobs},
			Runner: e.runCfg("sweep/quad"),
		})
		if err != nil {
			return nil, err
		}
		e.quadSweep = sa
	}
	return e.quadSweep, nil
}
