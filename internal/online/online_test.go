package online_test

import (
	"math"
	"sync"
	"testing"

	"symbiosched/internal/metrics"
	"symbiosched/internal/online"
	"symbiosched/internal/perfdb"
	"symbiosched/internal/program"
	"symbiosched/internal/uarch"
	"symbiosched/internal/workload"
)

var (
	tabOnce sync.Once
	tab     *perfdb.Table
)

// miniSuite holds the suite indices of the mini table's four benchmarks,
// ascending.
var miniSuite = []int{1, 5, 6, 7}

// table builds (once) a 4-benchmark SMT table — an interference-rich
// frozen oracle for the estimators to learn.
func table(t testing.TB) *perfdb.Table {
	t.Helper()
	tabOnce.Do(func() {
		suite := program.Suite()
		mini := make([]program.Profile, len(miniSuite))
		for i, g := range miniSuite {
			mini[i] = suite[g]
		}
		tab = perfdb.Build(perfdb.SMTModel{Machine: uarch.DefaultSMT()}, mini)
	})
	return tab
}

// suiteMix returns every coschedule of the mini table renamed to its
// suite indices, with the per-slot progress each makes over dt: what a
// learner sized to the whole suite sees on a machine that only ever runs
// the four-type mix.
func suiteMix(tb *perfdb.Table, dt float64) ([]workload.Coschedule, [][]float64) {
	local := allCoschedules(tb)
	global := make([]workload.Coschedule, len(local))
	progress := make([][]float64, len(local))
	for i, c := range local {
		global[i] = c.Remap(miniSuite) // ascending, so slot order is kept
		progress[i] = make([]float64, len(c))
		for j, typ := range c {
			progress[i][j] = tb.JobWIPC(c, typ) * dt
		}
	}
	return global, progress
}

// allCoschedules enumerates every coschedule of size 1..K over the mini
// suite — the full space a learner can be asked about.
func allCoschedules(tb *perfdb.Table) []workload.Coschedule {
	var all []workload.Coschedule
	for size := 1; size <= tb.K(); size++ {
		all = append(all, workload.Multisets(len(tb.Suite()), size)...)
	}
	return all
}

// feed drives the estimator with rounds of ground-truth observations of
// every coschedule, dt time units each — what the eventsim hook would
// report if the scheduler cycled through the whole space.
func feed(est online.Estimator, tb *perfdb.Table, rounds int, dt float64) {
	all := allCoschedules(tb)
	for r := 0; r < rounds; r++ {
		for _, c := range all {
			progress := make([]float64, len(c))
			for i, typ := range c {
				progress[i] = tb.JobWIPC(c, typ) * dt
			}
			est.ObserveInterval(c, dt, progress)
		}
	}
}

// TestSamplerConvergesToOracleRanking is the convergence property of the
// ISSUE: a sampler fed the frozen oracle's true rates reproduces, for
// every coschedule it measured, the oracle's WIPCs exactly — and hence the
// oracle's coschedule ranking. Noiseless measurements make the empirical
// mean exact, so the property is equality, not approximation.
func TestSamplerConvergesToOracleRanking(t *testing.T) {
	tb := table(t)
	s := online.NewSampler(tb.K(), online.SamplerConfig{Epsilon: 0, Seed: 3})
	feed(s, tb, 3, 1)
	if s.Exploring() {
		t.Fatal("sampler still exploring after epsilon-0 quantum rollover")
	}
	var bestEst, bestOracle workload.Coschedule
	bestEstTP, bestOracleTP := math.Inf(-1), math.Inf(-1)
	for _, c := range allCoschedules(tb) {
		for _, typ := range c.Types() {
			got, want := s.JobWIPC(c, typ), tb.JobWIPC(c, typ)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("JobWIPC(%v, %d) = %v, oracle %v", c, typ, got, want)
			}
		}
		// The oracle's stored InstTP sums raw per-slot IPCs, which can be
		// asymmetric across same-type slots at the ~1e-9 level; the
		// sampler reconstructs it from per-type WIPCs, so compare loosely.
		if got, want := s.InstTP(c), tb.InstTP(c); math.Abs(got-want) > 1e-6 {
			t.Fatalf("InstTP(%v) = %v, oracle %v", c, got, want)
		}
		if len(c) == tb.K() {
			if tp := s.InstTP(c); tp > bestEstTP {
				bestEstTP, bestEst = tp, c
			}
			if tp := tb.InstTP(c); tp > bestOracleTP {
				bestOracleTP, bestOracle = tp, c
			}
		}
	}
	if bestEst.Key() != bestOracle.Key() && math.Abs(bestEstTP-bestOracleTP) > 1e-6 {
		t.Errorf("sampler's best coschedule %v (%v) != oracle's %v (%v)",
			bestEst, bestEstTP, bestOracle, bestOracleTP)
	}
}

// TestSamplerSamplePhaseSteering: during a sample phase InstTP must (a)
// stay work-conserving — more slots always outscore fewer — and (b) rank
// the less-measured of two same-size coschedules higher, so an
// InstTP-maximising scheduler visits unmeasured mixes.
func TestSamplerSamplePhaseSteering(t *testing.T) {
	tb := table(t)
	s := online.NewSampler(tb.K(), online.SamplerConfig{Epsilon: 1, Seed: 1})
	if !s.Exploring() {
		t.Fatal("sampler must boot in a sample phase")
	}
	seen := workload.NewCoschedule(0, 1)
	progress := []float64{tb.JobWIPC(seen, 0) * 1, tb.JobWIPC(seen, 1) * 1}
	s.ObserveInterval(seen, 1, progress)
	if !s.Exploring() {
		t.Fatal("epsilon-1 sampler left the sample phase")
	}
	unseen := workload.NewCoschedule(2, 3)
	if s.InstTP(unseen) <= s.InstTP(seen) {
		t.Errorf("sample phase ranks measured %v (%v) above unmeasured %v (%v)",
			seen, s.InstTP(seen), unseen, s.InstTP(unseen))
	}
	bigger := workload.NewCoschedule(0, 1, 0, 1)
	if s.InstTP(bigger) <= s.InstTP(unseen) {
		t.Errorf("sample phase not work-conserving: size-4 %v <= size-2 %v",
			s.InstTP(bigger), s.InstTP(unseen))
	}
}

// TestSamplerEpsilonSplitsPhases: with epsilon strictly between 0 and 1
// the phase flag must actually alternate over many quanta.
func TestSamplerEpsilonSplitsPhases(t *testing.T) {
	tb := table(t)
	s := online.NewSampler(tb.K(), online.SamplerConfig{Epsilon: 0.5, Quantum: 1, Seed: 7})
	c := workload.NewCoschedule(0, 1)
	progress := []float64{tb.JobWIPC(c, 0), tb.JobWIPC(c, 1)}
	explore, exploit := 0, 0
	for i := 0; i < 200; i++ {
		s.ObserveInterval(c, 1, progress)
		if s.Exploring() {
			explore++
		} else {
			exploit++
		}
	}
	if explore == 0 || exploit == 0 {
		t.Errorf("epsilon 0.5 never alternated: %d explore vs %d exploit quanta", explore, exploit)
	}
}

// predictionError returns the mean absolute WIPC error of a rate source
// against the oracle over every (coschedule, type) pair of the given
// sizes.
func predictionError(rs online.RateSource, tb *perfdb.Table, sizes ...int) float64 {
	var sum float64
	n := 0
	for _, size := range sizes {
		for _, c := range workload.Multisets(len(tb.Suite()), size) {
			for _, typ := range c.Types() {
				sum += math.Abs(rs.JobWIPC(c, typ) - tb.JobWIPC(c, typ))
				n++
			}
		}
	}
	return sum / float64(n)
}

// noInterference is the prior baseline: every WIPC is the solo rate 1.
type noInterference struct{ k int }

func (noInterference) Name() string                             { return "prior" }
func (n noInterference) K() int                                 { return n.k }
func (noInterference) JobWIPC(workload.Coschedule, int) float64 { return 1 }
func (n noInterference) InstTP(c workload.Coschedule) float64   { return float64(len(c)) }
func (noInterference) Epoch() uint64                            { return 0 }

// TestPairwiseLearnsInterference: after seeing the whole coschedule
// space, the pairwise model's predictions must beat the no-interference
// prior by a wide margin (the SMT machine is not exactly pairwise-linear,
// so the property is a strong error reduction, not equality).
func TestPairwiseLearnsInterference(t *testing.T) {
	tb := table(t)
	p := online.NewPairwise(tb.K(), len(tb.Suite()), online.PairwiseConfig{})
	feed(p, tb, 2, 1)
	prior := predictionError(noInterference{tb.K()}, tb, 2, 3, 4)
	got := predictionError(p, tb, 2, 3, 4)
	if got > prior/3 {
		t.Errorf("pairwise error %.4f not well below prior %.4f", got, prior)
	}
	// The learned coefficients must be interference (negative) on average.
	var coefSum float64
	for b := 0; b < len(tb.Suite()); b++ {
		for u := 0; u < len(tb.Suite()); u++ {
			coefSum += p.Coef(b, u)
		}
	}
	if coefSum >= 0 {
		t.Errorf("mean learned coefficient %.4f not negative (co-runners must slow jobs)", coefSum)
	}
}

// TestPairwiseGeneralisesToUnseenMultisets is the model-based estimator's
// selling point: trained on pairs only (size-2 coschedules), it must
// predict the rates of size-3/4 multisets it never observed better than
// the no-interference prior does.
func TestPairwiseGeneralisesToUnseenMultisets(t *testing.T) {
	tb := table(t)
	p := online.NewPairwise(tb.K(), len(tb.Suite()), online.PairwiseConfig{})
	for r := 0; r < 2; r++ {
		for _, c := range workload.Multisets(len(tb.Suite()), 2) {
			progress := []float64{tb.JobWIPC(c, c[0]) * 1, tb.JobWIPC(c, c[1]) * 1}
			p.ObserveInterval(c, 1, progress)
		}
	}
	prior := predictionError(noInterference{tb.K()}, tb, 3, 4)
	got := predictionError(p, tb, 3, 4)
	if got >= prior {
		t.Errorf("pairs-only pairwise error %.4f no better than prior %.4f on unseen sizes", got, prior)
	}
}

// TestPairwiseZeroAllocs pins the learner's hot path at zero heap
// allocations: an observation, then an InstTP query of the observed
// coschedule, which re-solves every type the observation touched. The
// learner is sized to the whole suite and fed a four-type mix, as on a
// farm.
func TestPairwiseZeroAllocs(t *testing.T) {
	tb := table(t)
	cos, progress := suiteMix(tb, 0.25)
	p := online.NewPairwise(tb.K(), len(program.Suite()), online.PairwiseConfig{})
	col := metrics.New()
	p.SetMetrics(online.NewMetrics(col))
	for i, c := range cos { // warm up: every block at full size
		p.ObserveInterval(c, 0.25, progress[i])
		p.InstTP(c)
	}
	solves := col.Counter("online_solves")
	before := solves.Value()
	const runs = 200
	i := 0
	var sink float64
	allocs := testing.AllocsPerRun(runs, func() {
		c := cos[i%len(cos)]
		p.ObserveInterval(c, 0.25, progress[i%len(cos)])
		sink += p.InstTP(c)
		i++
	})
	if allocs != 0 {
		t.Errorf("ObserveInterval+InstTP allocates %.1f times per call, want 0", allocs)
	}
	if got := solves.Value() - before; got < runs {
		t.Errorf("%d re-solves over %d observe+query rounds; every round must re-solve", got, runs)
	}
	_ = sink
}

// TestEstimatorsDeterministicPerSeed: two estimators fed the same
// observation sequence report identical estimates — the property that
// keeps online sweeps byte-identical at any parallelism.
func TestEstimatorsDeterministicPerSeed(t *testing.T) {
	tb := table(t)
	for _, name := range []string{"sampler", "pairwise"} {
		a, err := online.New(name, tb, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := online.New(name, tb, 42)
		if err != nil {
			t.Fatal(err)
		}
		feed(a, tb, 2, 0.7)
		feed(b, tb, 2, 0.7)
		for _, c := range allCoschedules(tb) {
			if a.InstTP(c) != b.InstTP(c) {
				t.Fatalf("%s: InstTP(%v) differs across identical runs", name, c)
			}
			for _, typ := range c.Types() {
				if a.JobWIPC(c, typ) != b.JobWIPC(c, typ) {
					t.Fatalf("%s: JobWIPC(%v, %d) differs across identical runs", name, c, typ)
				}
			}
		}
		if a.Observations() != b.Observations() {
			t.Fatalf("%s: observation counts differ", name)
		}
	}
}

// TestFactory covers names, the oracle pass-through and the error path.
func TestFactory(t *testing.T) {
	tb := table(t)
	for _, name := range online.Names {
		est, err := online.New(name, tb, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if est.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, est.Name())
		}
		if est.K() != tb.K() {
			t.Errorf("New(%q).K() = %d, want %d", name, est.K(), tb.K())
		}
	}
	if _, err := online.New("psychic", tb, 1); err == nil {
		t.Error("New(psychic) succeeded")
	}
	// The oracle serves the table's truth and ignores observations.
	o, _ := online.New("oracle", tb, 1)
	c := workload.NewCoschedule(0, 1, 2, 3)
	o.ObserveInterval(c, 1, []float64{9, 9, 9, 9})
	if o.InstTP(c) != tb.InstTP(c) {
		t.Error("oracle InstTP drifted from the table")
	}
}
