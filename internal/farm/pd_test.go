package farm

import (
	"math"
	"testing"

	"symbiosched/internal/eventsim"
	"symbiosched/internal/perfdb"
	"symbiosched/internal/program"
	"symbiosched/internal/queueing"
	"symbiosched/internal/stats"
	"symbiosched/internal/workload"
)

// pdMixes returns the server mixes the pd identity properties sweep:
// a homogeneous SMT farm and a heterogeneous SMT/no-interference mix.
func pdMixes(t *testing.T) map[string][]ServerSpec {
	t.Helper()
	smt := smtTable(t)
	uni := perfdb.Build(perfdb.UniformModel{K: 4}, program.Suite()[:4])
	return map[string][]ServerSpec{
		"homogeneous": {fcfsSpec(smt), fcfsSpec(smt), fcfsSpec(smt)},
		"hetero":      {fcfsSpec(smt), fcfsSpec(uni), fcfsSpec(smt)},
	}
}

// TestPDFullProbeMatchesLI pins the ISSUE's identity property: pd with
// d = N (and beyond) probes every server, so it must reproduce li byte
// for byte — same dispatch stream, same decisions, same result struct up
// to the policy label — across seeds x loads x heterogeneous mixes.
func TestPDFullProbeMatchesLI(t *testing.T) {
	for mix, specs := range pdMixes(t) {
		for _, seed := range []uint64{3, 23, 101} {
			for _, load := range []float64{2.0, 4.5} {
				cfg := Config{Lambda: load, Jobs: 2000, SizeShape: 4, Seed: seed}
				li, err := SimulateSharded(specs, &LeastInterference{}, w4(), cfg, ShardConfig{})
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range []int{len(specs), len(specs) + 3} {
					pd, err := SimulateSharded(specs, &PowerOfD{D: d}, w4(), cfg, ShardConfig{})
					if err != nil {
						t.Fatal(err)
					}
					if got, want := shardFingerprint(pd), shardFingerprint(li); got != want {
						t.Errorf("%s seed=%d load=%v: pd%d != li:\n%s\nvs\n%s", mix, seed, load, d, got, want)
					}
				}
			}
		}
	}
}

// TestPDOneMatchesRandom pins the other end of the probe range: pd with
// d = 1 draws exactly one index from the dispatch stream per arrival, so
// it must reproduce the random dispatcher byte for byte.
func TestPDOneMatchesRandom(t *testing.T) {
	for mix, specs := range pdMixes(t) {
		for _, seed := range []uint64{3, 23, 101} {
			for _, load := range []float64{2.0, 4.5} {
				cfg := Config{Lambda: load, Jobs: 2000, SizeShape: 4, Seed: seed}
				rnd, err := SimulateSharded(specs, Random{}, w4(), cfg, ShardConfig{})
				if err != nil {
					t.Fatal(err)
				}
				pd, err := SimulateSharded(specs, &PowerOfD{D: 1}, w4(), cfg, ShardConfig{})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := shardFingerprint(pd), shardFingerprint(rnd); got != want {
					t.Errorf("%s seed=%d load=%v: pd1 != random:\n%s\nvs\n%s", mix, seed, load, got, want)
				}
			}
		}
	}
}

// TestPDProbeSetProperties checks the sampled probe sets directly:
// in-range, duplicate-free (strictly increasing, since sample keeps them
// sorted), exactly d indices, and replayable from the seed alone — two
// generators derived the way the engine derives the dispatch stream yield
// identical probe sequences.
func TestPDProbeSetProperties(t *testing.T) {
	const n = 23
	// sample only consults Up(), true on a fresh server, so bare servers
	// stand in for a fully in-service farm.
	servers := make([]*eventsim.Server, n)
	for i := range servers {
		servers[i] = new(eventsim.Server)
	}
	for _, seed := range []uint64{1, 9, 77} {
		// The dispatch stream as the engine derives it from the run seed.
		ra := stats.NewRNG(seed ^ 0xd1b54a32d192ed03)
		rb := stats.NewRNG(seed ^ 0xd1b54a32d192ed03)
		pa := &PowerOfD{D: 4}
		pb := &PowerOfD{D: 4}
		for draw := 0; draw < 500; draw++ {
			a := pa.sample(pa.D, servers, ra)
			if len(a) != pa.D {
				t.Fatalf("seed=%d draw %d: %d probes, want %d", seed, draw, len(a), pa.D)
			}
			for i, v := range a {
				if v < 0 || v >= n {
					t.Fatalf("seed=%d draw %d: probe %d out of range [0,%d)", seed, draw, v, n)
				}
				if i > 0 && a[i-1] >= v {
					t.Fatalf("seed=%d draw %d: probes %v not strictly increasing (dup or unsorted)", seed, draw, a)
				}
			}
			b := pb.sample(pb.D, servers, rb)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed=%d draw %d: replay diverged: %v vs %v", seed, draw, a, b)
				}
			}
		}
	}
}

// TestPDSupermarketCrossValidation extends the M/M/c Erlang-C
// cross-validation (TestFarmMatchesMMCAnalytics) to the pd dispatcher
// under UniformModel. Four single-context no-interference servers behind
// pd1 split the Poisson stream uniformly: each queue is an independent
// M/M/1 at the per-server load, with the analytic Erlang-C mean
// turnaround — and pd1 must equal the random dispatcher's pinned
// turnaround bitwise. pd2 is the classic supermarket model and must land
// strictly between random and full-information jsq.
func TestPDSupermarketCrossValidation(t *testing.T) {
	const nServers = 4
	tab := uniformTable(1)
	specs := make([]ServerSpec, nServers)
	for i := range specs {
		specs[i] = fcfsSpec(tab)
	}
	const load = 0.8
	lambda := load * nServers // mu = 1 per server
	cfg := Config{Lambda: lambda, Jobs: 40_000, SizeShape: 1, Seed: 1}
	run := func(disp string) *SweepResult {
		return replicate(t, specs, disp, workload.Workload{0}, cfg, 8)
	}
	rnd, pd1, pd2, jsq := run("random"), run("pd1"), run("pd2"), run("jsq")

	if pd1.MeanTurnaround != rnd.MeanTurnaround || pd1.P99Turnaround != rnd.P99Turnaround ||
		pd1.Utilisation != rnd.Utilisation || pd1.Throughput != rnd.Throughput {
		t.Errorf("pd1 does not reproduce random: %+v vs %+v", pd1, rnd)
	}
	// Uniform splitting of a Poisson stream is Poisson thinning: each
	// server is M/M/1 at rate lambda/n.
	q := queueing.MMC{Lambda: lambda / nServers, Mu: 1, C: 1}
	want, err := q.MeanTurnaround()
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(pd1.MeanTurnaround-want) / want; rel > 0.05 {
		t.Errorf("pd1 turnaround %.4f vs split-M/M/1 analytic %.4f (rel err %.1f%%)",
			pd1.MeanTurnaround, want, 100*rel)
	}
	// The supermarket ordering: two choices beat one by a wide margin at
	// load 0.8, and full information beats two choices.
	if !(pd2.MeanTurnaround < 0.9*pd1.MeanTurnaround) {
		t.Errorf("pd2 turnaround %.4f not clearly below pd1/random %.4f", pd2.MeanTurnaround, pd1.MeanTurnaround)
	}
	if !(jsq.MeanTurnaround < pd2.MeanTurnaround) {
		t.Errorf("jsq turnaround %.4f not below pd2 %.4f", jsq.MeanTurnaround, pd2.MeanTurnaround)
	}
}

// TestNewDispatcherPDParsing pins the pd name forms.
func TestNewDispatcherPDParsing(t *testing.T) {
	for name, want := range map[string]string{"pd": "pd2", "pd1": "pd1", "pd7": "pd7"} {
		d, err := NewDispatcher(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Name() != want {
			t.Errorf("NewDispatcher(%q).Name() = %q, want %q", name, d.Name(), want)
		}
	}
	for _, bad := range []string{"pd0", "pd-1", "pdx", "pd2.5"} {
		if _, err := NewDispatcher(bad); err == nil {
			t.Errorf("NewDispatcher(%q) succeeded, want error", bad)
		}
	}
}
