// Benchmarks: one per table and figure of the paper (regenerating the
// corresponding result via the internal/exp drivers) plus ablations of the
// design choices called out in DESIGN.md. Metrics of interest are attached
// with b.ReportMetric so `go test -bench . -benchmem` prints the same
// quantities the paper reports next to the usual ns/op.
//
// The per-figure benches run on a reduced setup (6-benchmark suite, small
// simulations) so the whole suite completes in a couple of minutes; the
// cmd/symbiosim binary runs the full-size experiments.
package symbiosched_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"symbiosched/internal/cachemodel"
	"symbiosched/internal/core"
	"symbiosched/internal/cyclesim"
	"symbiosched/internal/eventsim"
	"symbiosched/internal/exp"
	"symbiosched/internal/lp"
	"symbiosched/internal/membus"
	"symbiosched/internal/perfdb"
	"symbiosched/internal/program"
	"symbiosched/internal/sched"
	"symbiosched/internal/stats"
	"symbiosched/internal/uarch"
	"symbiosched/internal/workload"
)

var (
	benchOnce sync.Once
	benchEnv  *exp.Env
)

func env() *exp.Env {
	benchOnce.Do(func() {
		suite := program.Suite()
		cfg := exp.DefaultConfig()
		cfg.Suite = []program.Profile{suite[1], suite[3], suite[5], suite[6], suite[7], suite[11]}
		cfg.FCFSJobs = 5000
		cfg.SimJobs = 3000
		cfg.SampleWorkloads = 5
		benchEnv = exp.NewEnv(cfg)
	})
	return benchEnv
}

// ---- One benchmark per table/figure. ----

func BenchmarkTable1Profiles(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		rows := exp.Table1(e)
		if len(rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig1Variability(b *testing.B) {
	e := env()
	var last *exp.Fig1Result
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig1(e)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(100*last.SMT.AvgTP.AvgBest, "optGain%")
	b.ReportMetric(100*last.SMT.JobIPC.Variability(), "jobIPCvar%")
}

func BenchmarkFig2Scatter(b *testing.B) {
	e := env()
	var slope float64
	for i := 0; i < b.N; i++ {
		smt, _, err := exp.Fig2(e)
		if err != nil {
			b.Fatal(err)
		}
		slope = smt.Slope
	}
	b.ReportMetric(slope, "slope")
}

func BenchmarkFig3Bottleneck(b *testing.B) {
	e := env()
	var corr float64
	for i := 0; i < b.N; i++ {
		smt, _, err := exp.Fig3(e)
		if err != nil {
			b.Fatal(err)
		}
		corr = smt.Corr
	}
	b.ReportMetric(corr, "corr")
}

func BenchmarkTable2Heterogeneity(b *testing.B) {
	e := env()
	var homoWorst float64
	for i := 0; i < b.N; i++ {
		smt, _, err := exp.Table2(e)
		if err != nil {
			b.Fatal(err)
		}
		homoWorst = smt.Rows[0].Worst
	}
	b.ReportMetric(100*homoWorst, "worstHomo%")
}

func BenchmarkFig4Queueing(b *testing.B) {
	e := env()
	var red float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig4(e)
		if err != nil {
			b.Fatal(err)
		}
		red = r.TurnaroundReduction
	}
	b.ReportMetric(100*red, "turnaroundCut%")
}

func BenchmarkFig5Schedulers(b *testing.B) {
	e := env()
	var maxtp float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig5(e)
		if err != nil {
			b.Fatal(err)
		}
		if c, ok := r.Cell("MAXTP", 0.95); ok {
			maxtp = c.TurnaroundVsFCFS
		}
	}
	b.ReportMetric(maxtp, "maxtpTurnaround@0.95")
}

func BenchmarkFig6MaxThroughput(b *testing.B) {
	e := env()
	var gap float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig6(e)
		if err != nil {
			b.Fatal(err)
		}
		gap = r.MAXTPGapToOptimal
	}
	b.ReportMetric(100*gap, "maxtpGap%")
}

func BenchmarkN8Workloads(b *testing.B) {
	suite := program.Suite()
	cfg := exp.DefaultConfig()
	cfg.Suite = suite[:8]
	cfg.FCFSJobs = 4000
	e := exp.NewEnv(cfg)
	var gain float64
	for i := 0; i < b.N; i++ {
		r, err := exp.N8(e)
		if err != nil {
			b.Fatal(err)
		}
		gain = r.OptGainN8
	}
	b.ReportMetric(100*gain, "optGainN8%")
}

func BenchmarkUarchStudy(b *testing.B) {
	e := env()
	var gain float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Uarch(e)
		if err != nil {
			b.Fatal(err)
		}
		gain = r.GainOverRRStaticFCFS
	}
	b.ReportMetric(100*gain, "icountDynGain%")
}

func BenchmarkFairnessCounterfactual(b *testing.B) {
	e := env()
	var gain float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fairness(e)
		if err != nil {
			b.Fatal(err)
		}
		gain = r.OptGain
	}
	b.ReportMetric(100*gain, "optGain%")
}

// ---- Building-block benchmarks. ----

func BenchmarkPerfdbBuildSMT(b *testing.B) {
	suite := program.Suite()[:6]
	model := perfdb.SMTModel{Machine: uarch.DefaultSMT()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perfdb.Build(model, suite)
	}
}

func BenchmarkLPOptimalSchedule(b *testing.B) {
	t := env().Table(exp.SMT)
	w := workload.Workload{0, 1, 2, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimal(t, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFCFSSimulation(b *testing.B) {
	t := env().Table(exp.SMT)
	w := workload.Workload{0, 1, 2, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.FCFS(t, w, core.FCFSConfig{Jobs: 5000, Seed: uint64(i) + 1})
	}
}

func BenchmarkCycleSimSMT(b *testing.B) {
	m := uarch.DefaultSMT()
	suite := program.Suite()
	jobs := []*program.Profile{&suite[5], &suite[7], &suite[6], &suite[1]}
	cfg := cyclesim.Config{SMT: &m, Instructions: 20_000, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cyclesim.Run(cfg, jobs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLatencyExperiment(b *testing.B) {
	t := env().Table(exp.SMT)
	w := workload.Workload{0, 1, 2, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &sched.MAXIT{Rates: t}
		if _, err := eventsim.Latency(t, w, s, eventsim.LatencyConfig{
			Lambda: 1.0, Jobs: 3000, Seed: uint64(i) + 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations of DESIGN.md design choices. ----

// BenchmarkAblationCacheModel compares the occupancy fixed point against
// static equal partitioning: the metric is the cache share a streaming job
// (libquantum) takes from a cache-sensitive one (mcf) — the asymmetry the
// fixed point exists to capture.
func BenchmarkAblationCacheModel(b *testing.B) {
	suite := program.Suite()
	libq, mcf := &suite[6], &suite[7]
	demands := []cachemodel.Demand{{Profile: libq, IPC: 0.3}, {Profile: mcf, IPC: 0.2}}
	var fixedPoint, equal float64
	for i := 0; i < b.N; i++ {
		fixedPoint = cachemodel.Shares(demands, 2048)[0]
		equal = cachemodel.EqualShares(2, 2048)[0]
	}
	b.ReportMetric(fixedPoint/2048, "libqShareFP")
	b.ReportMetric(equal/2048, "libqShareEq")
}

// BenchmarkAblationMembus reports the loaded-latency penalty the M/D/1 bus
// model adds at a streaming gang's utilisation versus an unloaded bus.
func BenchmarkAblationMembus(b *testing.B) {
	bus := membus.New(uarch.DefaultBus().ServiceCycles)
	var loaded float64
	for i := 0; i < b.N; i++ {
		loaded = bus.LoadedLatency(230, 0.02) // ~4 streaming threads
	}
	b.ReportMetric(loaded-230, "queueDelayCycles")
}

// BenchmarkAblationFCFSModel compares the Markov-chain FCFS approximation
// against the discrete-event simulation, in both speed (ns/op of each
// branch alternates) and agreement (reported metric).
func BenchmarkAblationFCFSModel(b *testing.B) {
	t := env().Table(exp.SMT)
	w := workload.Workload{0, 1, 2, 3}
	var markov, sim float64
	for i := 0; i < b.N; i++ {
		m, err := core.MarkovFCFS(t, w)
		if err != nil {
			b.Fatal(err)
		}
		markov = m
		sim = core.FCFS(t, w, core.FCFSConfig{Jobs: 5000, Seed: 1}).Throughput
	}
	b.ReportMetric(100*(markov/sim-1), "markovVsSim%")
}

// BenchmarkAblationPivotRule compares Bland's rule against Dantzig pricing
// on the paper-shaped LP (35 variables, 4 constraints).
func BenchmarkAblationPivotRule(b *testing.B) {
	t := env().Table(exp.SMT)
	w := workload.Workload{0, 1, 2, 3}
	coscheds := workload.LocalCoschedules(w, t.K())
	build := func(rule lp.PivotRule) *lp.Problem {
		p := &lp.Problem{Sense: lp.Maximize, Rule: rule}
		p.C = make([]float64, len(coscheds))
		ones := make([]float64, len(coscheds))
		for j, c := range coscheds {
			p.C[j] = t.InstTP(c)
			ones[j] = 1
		}
		p.A = append(p.A, ones)
		p.B = append(p.B, 1)
		for bi := 1; bi < len(w); bi++ {
			row := make([]float64, len(coscheds))
			for j, c := range coscheds {
				row[j] = t.TypeRate(c, w[bi]) - t.TypeRate(c, w[0])
			}
			p.A = append(p.A, row)
			p.B = append(p.B, 0)
		}
		return p
	}
	var itersBland, itersDantzig int
	for i := 0; i < b.N; i++ {
		sb, err := lp.Solve(build(lp.Bland))
		if err != nil {
			b.Fatal(err)
		}
		sd, err := lp.Solve(build(lp.Dantzig))
		if err != nil {
			b.Fatal(err)
		}
		itersBland, itersDantzig = sb.Iterations, sd.Iterations
	}
	b.ReportMetric(float64(itersBland), "blandPivots")
	b.ReportMetric(float64(itersDantzig), "dantzigPivots")
}

// BenchmarkAblationMAXTPFallback measures how often MAXTP can follow the
// LP schedule versus falling back, by comparing achieved throughput with
// the pure-MAXIT scheduler on the same pooled experiment.
func BenchmarkAblationMAXTPFallback(b *testing.B) {
	t := env().Table(exp.SMT)
	w := workload.Workload{0, 1, 2, 3}
	var maxtpTP, maxitTP float64
	for i := 0; i < b.N; i++ {
		s, err := sched.NewMAXTP(t, w)
		if err != nil {
			b.Fatal(err)
		}
		cfg := eventsim.MaxThroughputConfig{Jobs: 4000, Seed: uint64(i) + 1}
		r1, err := eventsim.MaxThroughput(t, w, s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := eventsim.MaxThroughput(t, w, &sched.MAXIT{Rates: t}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		maxtpTP, maxitTP = r1.Throughput, r2.Throughput
	}
	b.ReportMetric(100*(maxtpTP/maxitTP-1), "maxtpVsMaxit%")
}

// BenchmarkAblationSMTFetchPolicy quantifies the ICOUNT-vs-RR aggregate
// throughput difference on a mixed coschedule — the Section VII contrast.
func BenchmarkAblationSMTFetchPolicy(b *testing.B) {
	suite := program.Suite()
	jobs := []*program.Profile{&suite[5], &suite[7], &suite[6], &suite[1]}
	ic := perfdb.SMTModel{Machine: uarch.DefaultSMT()}
	rrm := uarch.DefaultSMT()
	rrm.Fetch = uarch.RoundRobin
	rr := perfdb.SMTModel{Machine: rrm}
	var icTP, rrTP float64
	for i := 0; i < b.N; i++ {
		icTP, rrTP = 0, 0
		for _, x := range ic.SlotIPC(jobs) {
			icTP += x
		}
		for _, x := range rr.SlotIPC(jobs) {
			rrTP += x
		}
	}
	b.ReportMetric(100*(icTP/rrTP-1), "icountVsRR%")
}

// BenchmarkSectionVISweepParallelism measures the internal/runner payoff
// on the repo's hottest path: the Figure 5 latency sweep (workloads x
// loads x schedulers of event simulation) at Parallelism=1 versus all
// CPUs. The sub-benchmark names carry the pool size; output is asserted
// byte-identical across the two, which is the runner's determinism
// contract. Expect >= 1.5x wall-time improvement at GOMAXPROCS >= 4.
func BenchmarkSectionVISweepParallelism(b *testing.B) {
	var outputs [2]string
	for pi, p := range []int{1, runtime.GOMAXPROCS(0)} {
		pi, p := pi, p
		b.Run(fmt.Sprintf("parallel=%d", p), func(b *testing.B) {
			suite := program.Suite()
			cfg := exp.DefaultConfig()
			cfg.Suite = []program.Profile{suite[1], suite[3], suite[5], suite[6], suite[7], suite[11]}
			cfg.FCFSJobs = 5000
			cfg.SimJobs = 3000
			cfg.SampleWorkloads = 5
			cfg.Parallelism = p
			e := exp.NewEnv(cfg)
			// Pre-build the shared inputs (perfdb table, Figure 1-3 sweep)
			// so the timed region is exactly the Section VI event sweep.
			if _, err := e.Sweep(exp.SMT); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := exp.Fig5(e)
				if err != nil {
					b.Fatal(err)
				}
				outputs[pi] = r.Format()
			}
		})
	}
	if outputs[0] != "" && outputs[1] != "" && outputs[0] != outputs[1] {
		b.Fatalf("Fig5 output differs across parallelism levels:\n%s\nvs\n%s", outputs[0], outputs[1])
	}
}

// BenchmarkStatsRNG keeps the PRNG hot path visible in profiles.
func BenchmarkStatsRNG(b *testing.B) {
	r := stats.NewRNG(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}

// BenchmarkMakespanExtension regenerates the small-set makespan experiment
// (paper Section II / Xu et al. discussion): the reported metric is LJF's
// makespan advantage over the symbiosis-aware MAXIT.
func BenchmarkMakespanExtension(b *testing.B) {
	e := env()
	var ljfVsMaxit float64
	for i := 0; i < b.N; i++ {
		r, err := exp.MakespanExperiment(e, 8)
		if err != nil {
			b.Fatal(err)
		}
		ljfVsMaxit = r.MeanMakespan["LJF"] / r.MeanMakespan["MAXIT"]
	}
	b.ReportMetric(ljfVsMaxit, "ljfVsMaxitMakespan")
}
