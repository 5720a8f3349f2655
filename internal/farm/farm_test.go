package farm

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"symbiosched/internal/eventsim"
	"symbiosched/internal/online"
	"symbiosched/internal/perfdb"
	"symbiosched/internal/program"
	"symbiosched/internal/queueing"
	"symbiosched/internal/runner"
	"symbiosched/internal/sched"
	"symbiosched/internal/stats"
	"symbiosched/internal/uarch"
	"symbiosched/internal/workload"
)

var (
	smtOnce sync.Once
	smtTab  *perfdb.Table
)

// smtTable builds (once) a 4-benchmark SMT table — the interference-rich
// configuration for the symbiosis tests.
func smtTable(t testing.TB) *perfdb.Table {
	t.Helper()
	smtOnce.Do(func() {
		suite := program.Suite()
		mini := []program.Profile{suite[1], suite[5], suite[6], suite[7]}
		smtTab = perfdb.Build(perfdb.SMTModel{Machine: uarch.DefaultSMT()}, mini)
	})
	return smtTab
}

// uniformTable builds a no-interference table with k contexts over a
// single job type: the M/M/k oracle machine.
func uniformTable(k int) *perfdb.Table {
	return perfdb.Build(perfdb.UniformModel{K: k}, program.Suite()[:1])
}

func fcfsSpec(tab *perfdb.Table) ServerSpec {
	return ServerSpec{Table: tab, Sched: func(online.RateSource) (sched.Scheduler, error) { return &sched.FCFS{}, nil }}
}

// learnedSpec is a MAXIT server over tab that decides on the rates the
// named online estimator learns at run time.
func learnedSpec(tab *perfdb.Table, estimator string) ServerSpec {
	return ServerSpec{
		Table:     tab,
		Sched:     func(rs online.RateSource) (sched.Scheduler, error) { return sched.New("MAXIT", rs, w4()) },
		Estimator: func(seed uint64) (online.Estimator, error) { return online.New(estimator, tab, seed) },
	}
}

// fleet returns n copies of spec.
func fleet(n int, spec ServerSpec) []ServerSpec {
	specs := make([]ServerSpec, n)
	for i := range specs {
		specs[i] = spec
	}
	return specs
}

func w4() workload.Workload { return workload.Workload{0, 1, 2, 3} }

// TestFarmOfOneReproducesEventsimLatency pins the refactoring contract:
// a farm of one server is the single-server experiment. The lockstep
// reference loop reproduces it bit for bit — same RNG streams, same
// event arithmetic, same accumulators — and the engine, whose lazy clock
// cuts the same intervals at the same events, agrees to 1e-9.
func TestFarmOfOneReproducesEventsimLatency(t *testing.T) {
	tab := smtTable(t)
	for _, name := range []string{"FCFS", "MAXIT", "SRPT"} {
		cfg := eventsim.LatencyConfig{Lambda: 1.5, Jobs: 4000, SizeShape: 4, Seed: 7}
		s, err := sched.New(name, tab, w4())
		if err != nil {
			t.Fatal(err)
		}
		single, err := eventsim.Latency(tab, w4(), s, cfg)
		if err != nil {
			t.Fatalf("%s: eventsim: %v", name, err)
		}
		mk := func(rs online.RateSource) (sched.Scheduler, error) { return sched.New(name, rs, w4()) }
		specs := []ServerSpec{{Table: tab, Sched: mk}}
		fcfg := Config{Lambda: 1.5, Jobs: 4000, SizeShape: 4, Seed: 7}
		serial, err := simulateSerial(specs, &RoundRobin{}, w4(), fcfg)
		if err != nil {
			t.Fatalf("%s: reference loop: %v", name, err)
		}
		engine, err := SimulateSharded(specs, &RoundRobin{}, w4(), fcfg, ShardConfig{})
		if err != nil {
			t.Fatalf("%s: engine: %v", name, err)
		}
		for _, c := range []struct {
			stat           string
			serial, engine float64
			want           float64
		}{
			{"turnaround", serial.MeanTurnaround, engine.MeanTurnaround, single.MeanTurnaround},
			{"utilisation", serial.PerServer[0].Utilisation, engine.PerServer[0].Utilisation, single.Utilisation},
			{"empty fraction", serial.EmptyFraction, engine.EmptyFraction, single.EmptyFraction},
			{"throughput", serial.Throughput, engine.Throughput, single.Throughput},
		} {
			if c.serial != c.want {
				t.Errorf("%s: reference farm-of-1 %s %v != single-server %v", name, c.stat, c.serial, c.want)
			}
			if relErr(c.engine, c.want) > 1e-9 {
				t.Errorf("%s: engine farm-of-1 %s %v diverges from single-server %v", name, c.stat, c.engine, c.want)
			}
		}
	}
}

// TestFarmMatchesMMCAnalytics is the farm's correctness oracle (the
// ISSUE's cross-validation satellite): homogeneous jobs, interference
// disabled (uniform table), exponential sizes and FCFS reduce the farm to
// an M/M/c queue, whose mean turnaround internal/queueing computes
// analytically via Erlang-C. Simulated turnaround must match within a
// few percent across c in {1, 2, 4} and loads {0.5, 0.8, 0.95}.
func TestFarmMatchesMMCAnalytics(t *testing.T) {
	for _, c := range []int{1, 2, 4} {
		tab := uniformTable(c)
		for _, load := range []float64{0.5, 0.8, 0.95} {
			lambda := load * float64(c) // mu = 1 per context
			q := queueing.MMC{Lambda: lambda, Mu: 1, C: c}
			want, err := q.MeanTurnaround()
			if err != nil {
				t.Fatal(err)
			}
			// Average several replications: near saturation a single
			// run's mean is too noisy to pin tightly.
			res := replicate(t, []ServerSpec{fcfsSpec(tab)}, "rr", workload.Workload{0},
				Config{Lambda: lambda, Jobs: 50_000, SizeShape: 1, Seed: 1}, 10)
			rel := math.Abs(res.MeanTurnaround-want) / want
			if rel > 0.05 {
				t.Errorf("c=%d load=%v: farm turnaround %.4f vs M/M/%d analytic %.4f (rel err %.1f%%)",
					c, load, res.MeanTurnaround, c, want, 100*rel)
			}
		}
	}
}

// replicate runs reps replications of one farm configuration in index
// order and folds them, as the experiment layer's replicated grids do.
func replicate(t *testing.T, specs []ServerSpec, disp string, w workload.Workload, cfg Config, reps int) *SweepResult {
	t.Helper()
	runs := make([]Replication, reps)
	for i := range runs {
		r, err := Replicate(specs, disp, w, cfg, i)
		if err != nil {
			t.Fatalf("%s replication %d: %v", disp, i, err)
		}
		runs[i] = r
	}
	return Aggregate(runs)
}

// TestSweepDeterministicAcrossParallelism pins the acceptance criterion:
// replications fanned out through internal/runner and folded by
// Aggregate are bit-identical at parallelism 1 and 8.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	tab := smtTable(t)
	specs := []ServerSpec{fcfsSpec(tab), fcfsSpec(tab)}
	cfg := Config{Lambda: 2.5, Jobs: 3000, SizeShape: 4, Seed: 3}
	var outs []string
	for _, p := range []int{1, 8} {
		runs, err := runner.Map(context.Background(), runner.Config{Parallelism: p}, 6,
			func(_ context.Context, i int) (Replication, error) {
				return Replicate(specs, "li", w4(), cfg, i)
			})
		if err != nil {
			t.Fatal(err)
		}
		res := Aggregate(runs)
		outs = append(outs, fmt.Sprintf("%v %v %v %v %v %v",
			res.MeanTurnaround, res.P95Turnaround, res.Utilisation,
			res.EmptyFraction, res.Throughput, res.TurnaroundStd))
	}
	if outs[0] != outs[1] {
		t.Errorf("sweep differs across parallelism:\np=1: %s\np=8: %s", outs[0], outs[1])
	}
}

// TestSimulateDeterministicRepeat: same seed, same everything.
func TestSimulateDeterministicRepeat(t *testing.T) {
	tab := smtTable(t)
	specs := []ServerSpec{fcfsSpec(tab), fcfsSpec(tab)}
	run := func() *Result {
		d, _ := NewDispatcher("random")
		res, err := SimulateSharded(specs, d, w4(), Config{Lambda: 2.0, Jobs: 3000, SizeShape: 4, Seed: 5}, ShardConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.MeanTurnaround != b.MeanTurnaround || a.P95Turnaround != b.P95Turnaround ||
		a.Throughput != b.Throughput || a.PerServer[0].Dispatched != b.PerServer[0].Dispatched {
		t.Errorf("same-seed runs differ: %+v vs %+v", a, b)
	}
}

// TestWarmupExceedsJobs: a warmup longer than the run is legal — nothing
// is counted and nothing panics (eventsim handles the same config the
// same way).
func TestWarmupExceedsJobs(t *testing.T) {
	tab := uniformTable(1)
	d, _ := NewDispatcher("rr")
	res, err := SimulateSharded([]ServerSpec{fcfsSpec(tab)}, d, workload.Workload{0},
		Config{Lambda: 0.5, Jobs: 50, Warmup: 100, SizeShape: 1}, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counted != 0 || res.MeanTurnaround != 0 {
		t.Errorf("counted %d turnaround %v, want 0, 0", res.Counted, res.MeanTurnaround)
	}
	if res.Completed != 50 {
		t.Errorf("completed %d, want 50", res.Completed)
	}
}

// TestDispatchersRouteSensibly sanity-checks each policy's routing on a
// two-server farm.
func TestDispatchersRouteSensibly(t *testing.T) {
	tab := smtTable(t)
	specs := []ServerSpec{fcfsSpec(tab), fcfsSpec(tab)}
	for _, name := range DispatcherNames {
		d, err := NewDispatcher(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SimulateSharded(specs, d, w4(), Config{Lambda: 2.0, Jobs: 4000, SizeShape: 4, Seed: 2}, ShardConfig{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Dispatcher != name {
			t.Errorf("%s: result labelled %q", name, res.Dispatcher)
		}
		total := 0
		for _, ps := range res.PerServer {
			total += ps.Dispatched
			if ps.Dispatched == 0 {
				t.Errorf("%s: server %q received no jobs", name, ps.Name)
			}
		}
		if total != res.Completed {
			t.Errorf("%s: dispatched %d != completed %d", name, total, res.Completed)
		}
	}
	if _, err := NewDispatcher("bogus"); err == nil {
		t.Error("NewDispatcher(bogus) succeeded")
	}
}

// TestRoundRobinCycles verifies rr's routing order directly.
func TestRoundRobinCycles(t *testing.T) {
	tab := uniformTable(1)
	servers := []*eventsim.Server{
		eventsim.NewServer(tab, &sched.FCFS{}),
		eventsim.NewServer(tab, &sched.FCFS{}),
		eventsim.NewServer(tab, &sched.FCFS{}),
	}
	d := &RoundRobin{}
	rng := stats.NewRNG(1)
	j := &sched.Job{Type: 0}
	for i := 0; i < 7; i++ {
		if got := d.Pick(j, servers, len(servers), rng); got != i%3 {
			t.Fatalf("pick %d = %d, want %d", i, got, i%3)
		}
	}
}

// TestJSQPicksShortest verifies jsq against hand-loaded queues.
func TestJSQPicksShortest(t *testing.T) {
	tab := uniformTable(1)
	mk := func(n int) *eventsim.Server {
		sv := eventsim.NewServer(tab, &sched.FCFS{})
		for i := 0; i < n; i++ {
			sv.Add(&sched.Job{ID: i, Type: 0, Size: 1, Remaining: 1})
		}
		return sv
	}
	servers := []*eventsim.Server{mk(2), mk(0), mk(1)}
	if got := (JoinShortestQueue{}).Pick(&sched.Job{Type: 0}, servers, len(servers), stats.NewRNG(1)); got != 1 {
		t.Errorf("jsq picked %d, want 1 (empty server)", got)
	}
}

// TestLeastInterferencePrefersSymbiosis: with one server running a
// cache-hungry co-runner and another running a friendly one, li must send
// the arriving job where the probed marginal throughput is higher, and
// must prefer an idle server (marginal WIPC 1) over any interfering one.
func TestLeastInterferencePrefersSymbiosis(t *testing.T) {
	tab := smtTable(t)
	idle := eventsim.NewServer(tab, &sched.FCFS{})
	busy := eventsim.NewServer(tab, &sched.FCFS{})
	busy.Add(&sched.Job{ID: 0, Type: 1, Size: 1, Remaining: 1})
	if err := busy.Reschedule(); err != nil {
		t.Fatal(err)
	}
	j := &sched.Job{ID: 1, Type: 2}
	servers := []*eventsim.Server{busy, idle}
	if got := (&LeastInterference{}).Pick(j, servers, len(servers), stats.NewRNG(1)); got != 1 {
		// Marginal gain at the idle server is WIPC 1; next to an
		// interfering co-runner it is strictly less on the SMT model.
		t.Errorf("li picked busy server %d, want idle server 1", got)
	}
	// All saturated -> falls back to shortest queue.
	full := eventsim.NewServer(tab, &sched.FCFS{})
	for i := 0; i < tab.K(); i++ {
		full.Add(&sched.Job{ID: i, Type: 0, Size: 1, Remaining: 1})
	}
	if err := full.Reschedule(); err != nil {
		t.Fatal(err)
	}
	fuller := eventsim.NewServer(tab, &sched.FCFS{})
	for i := 0; i < tab.K()+2; i++ {
		fuller.Add(&sched.Job{ID: i, Type: 0, Size: 1, Remaining: 1})
	}
	if err := fuller.Reschedule(); err != nil {
		t.Fatal(err)
	}
	if got := (&LeastInterference{}).Pick(j, []*eventsim.Server{fuller, full}, 2, stats.NewRNG(1)); got != 1 {
		t.Errorf("saturated li picked %d, want 1 (shorter queue)", got)
	}
}

// TestHeterogeneousFarm runs SMT and no-interference servers side by
// side; both tables must cover the workload's four job types.
func TestHeterogeneousFarm(t *testing.T) {
	uni4 := perfdb.Build(perfdb.UniformModel{K: 4}, program.Suite()[:4])
	specs := []ServerSpec{fcfsSpec(smtTable(t)), fcfsSpec(uni4)}
	d, _ := NewDispatcher("li")
	res, err := SimulateSharded(specs, d, w4(), Config{Lambda: 3.0, Jobs: 4000, SizeShape: 4, Seed: 4}, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 4000 {
		t.Errorf("completed %d, want 4000", res.Completed)
	}
	if res.Utilisation <= 0 || res.Utilisation > 1 {
		t.Errorf("farm utilisation %v outside (0,1]", res.Utilisation)
	}
}

// TestOnlineFarm wires the learning path end to end: servers built with
// an estimator factory run their scheduler and the li dispatcher over
// learned rates, complete the run, label themselves with the estimator,
// and stay deterministic per seed.
func TestOnlineFarm(t *testing.T) {
	tab := smtTable(t)
	run := func() *Result {
		d, _ := NewDispatcher("li")
		res, err := SimulateSharded(fleet(2, learnedSpec(tab, "sampler")), d, w4(), Config{
			Lambda: 2.5, Jobs: 3000, SizeShape: 4, Seed: 6,
		}, ShardConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Completed != 3000 {
		t.Errorf("completed %d, want 3000", a.Completed)
	}
	for _, ps := range a.PerServer {
		if !strings.Contains(ps.Name, "+sampler") {
			t.Errorf("server %q not labelled with its estimator", ps.Name)
		}
	}
	if a.MeanTurnaround != b.MeanTurnaround || a.P99Turnaround != b.P99Turnaround || a.Throughput != b.Throughput {
		t.Errorf("online farm runs differ across identical seeds: %+v vs %+v", a, b)
	}
}

// TestResultQuantilesOrdered pins the new turnaround quantiles: P50 <=
// mean-ish ordering is not guaranteed, but P50 <= P95 <= P99 always is.
func TestResultQuantilesOrdered(t *testing.T) {
	tab := smtTable(t)
	d, _ := NewDispatcher("rr")
	res, err := SimulateSharded([]ServerSpec{fcfsSpec(tab)}, d, w4(), Config{
		Lambda: 2.0, Jobs: 4000, SizeShape: 4, Seed: 8,
	}, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !(res.P50Turnaround > 0 && res.P50Turnaround <= res.P95Turnaround && res.P95Turnaround <= res.P99Turnaround) {
		t.Errorf("quantiles out of order: p50 %v p95 %v p99 %v",
			res.P50Turnaround, res.P95Turnaround, res.P99Turnaround)
	}
	agg := Aggregate([]Replication{{Seed: 1, Result: res}, {Seed: 2, Result: res}})
	if agg.P50Turnaround != res.P50Turnaround || agg.P99Turnaround != res.P99Turnaround {
		t.Errorf("aggregate quantiles %v/%v != replication's %v/%v",
			agg.P50Turnaround, agg.P99Turnaround, res.P50Turnaround, res.P99Turnaround)
	}
}

// TestJSQBeatsRandomNearSaturation: queue-aware dispatch must cut mean
// turnaround versus blind random dispatch at high load.
func TestJSQBeatsRandomNearSaturation(t *testing.T) {
	tab := uniformTable(2)
	specs := []ServerSpec{fcfsSpec(tab), fcfsSpec(tab), fcfsSpec(tab)}
	cfg := Config{Lambda: 0.85 * 6, Jobs: 20_000, SizeShape: 1, Seed: 9}
	run := func(disp string) float64 {
		return replicate(t, specs, disp, workload.Workload{0}, cfg, 3).MeanTurnaround
	}
	if jsq, rnd := run("jsq"), run("random"); jsq >= rnd {
		t.Errorf("JSQ turnaround %v not better than random %v at load 0.85", jsq, rnd)
	}
}

// TestNonFiniteConfigRejected pins that a non-finite rate, job size, SLO
// or schedule phase, or a negative size shape, is an error from the farm
// engine, from eventsim.Latency and, for job sizes, from
// eventsim.Makespan — never a panic (an infinite mean size used to reach
// stats.Exp with rate 0), a silent empty or infinite result, or a run on
// NaN arithmetic.
func TestNonFiniteConfigRejected(t *testing.T) {
	tab := smtTable(t)
	specs := []ServerSpec{fcfsSpec(tab), fcfsSpec(tab)}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		desc     string
		cfg      Config
		latency  bool // the case applies to eventsim.Latency too
		makespan bool // and to eventsim.Makespan, which has no arrival rate
	}{
		{"NaN lambda", Config{Lambda: nan}, true, false},
		{"infinite lambda", Config{Lambda: inf}, true, false},
		{"NaN job size", Config{Lambda: 1, JobSize: nan}, true, true},
		{"NaN job size, Erlang-4", Config{Lambda: 1, JobSize: nan, SizeShape: 4}, true, true},
		{"infinite job size, deterministic", Config{Lambda: 1, JobSize: inf}, true, true},
		{"infinite job size, exponential", Config{Lambda: 1, JobSize: inf, SizeShape: 1}, true, true},
		{"infinite job size, Erlang-4", Config{Lambda: 1, JobSize: inf, SizeShape: 4}, true, true},
		{"negative infinite job size", Config{Lambda: 1, JobSize: -inf}, true, true},
		{"negative size shape", Config{Lambda: 1, SizeShape: -1}, true, true},
		{"NaN SLO", Config{Lambda: 1, SLO: nan}, false, false},
		{"infinite SLO", Config{Lambda: 1, SLO: inf}, false, false},
		{"NaN phase rate", Config{Lambda: 1, Schedule: []Phase{{Duration: 1, Rate: nan}, {Duration: 1, Rate: 1}}}, false, false},
		{"infinite phase duration", Config{Lambda: 1, Schedule: []Phase{{Duration: inf, Rate: 1}}}, false, false},
	}
	for _, tc := range cases {
		tc.cfg.Jobs, tc.cfg.Seed = 100, 1
		if _, err := SimulateSharded(specs, &RoundRobin{}, w4(), tc.cfg, ShardConfig{}); err == nil {
			t.Errorf("%s: SimulateSharded returned no error", tc.desc)
		}
		if tc.latency {
			lcfg := eventsim.LatencyConfig{Lambda: tc.cfg.Lambda, Jobs: 100, JobSize: tc.cfg.JobSize, SizeShape: tc.cfg.SizeShape}
			if _, err := eventsim.Latency(tab, w4(), &sched.FCFS{}, lcfg); err == nil {
				t.Errorf("%s: eventsim.Latency returned no error", tc.desc)
			}
		}
		if tc.makespan {
			mcfg := eventsim.MakespanConfig{Batch: 8, JobSize: tc.cfg.JobSize, SizeShape: tc.cfg.SizeShape, Seed: 1}
			if _, err := eventsim.Makespan(tab, w4(), &sched.FCFS{}, mcfg); err == nil {
				t.Errorf("%s: eventsim.Makespan returned no error", tc.desc)
			}
		}
	}
}
