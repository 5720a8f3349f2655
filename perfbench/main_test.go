package main

import (
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"slices"
	"testing"

	"symbiosched/internal/eventsim"
	"symbiosched/internal/online"
	"symbiosched/internal/perfdb"
	"symbiosched/internal/sched"
	"symbiosched/internal/uarch"
	"symbiosched/internal/workload"
)

var update = flag.Bool("update", false, "rewrite reference.json from fresh runs at the default seed")

// benchmarkSpec is the part of ../BENCHMARK.json the reports must match.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics fails unless m reports exactly the named metrics, with
// their declared units.
func checkMetrics(t *testing.T, m map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(m) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(m), len(want))
	}
	for _, w := range want {
		got, ok := m[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
		} else if got.Unit != w.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, got.Unit, w.Unit)
		}
	}
}

// TestTimedRunsPassOutputCheck runs every workload's timed protocol at
// its small size: two repetitions through the invariants, the repetition
// identity and, at the default seed, the stored reference values. The
// default seed runs twice, and its footprint must repeat.
func TestTimedRunsPassOutputCheck(t *testing.T) {
	spec := loadSpec(t)
	for _, name := range workloadNames() {
		footprint := map[uint64]float64{}
		for _, seed := range []uint64{defaultSeed, 7, defaultSeed} {
			wl := workloads[name]
			rep, err := timed(wl, wl.small, seed, 0, io.Discard)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < minReps {
				t.Errorf("%s seed %d: correct %v, %d of %d calls failed", name, seed, rep.Correct, rep.Failed, rep.Attempted)
			}
			checkMetrics(t, rep.Metrics, spec.EndToEnd)
			for n, m := range rep.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s seed %d: %s = %v, want > 0", name, seed, n, m.Value)
				}
			}
			// Small heaps repeat to about 1%; 3% is under a third of the
			// footprint_mb bound.
			fp := rep.Metrics["footprint_mb"].Value
			if prev, ok := footprint[seed]; ok && math.Abs(fp-prev) > 0.03*prev {
				t.Errorf("%s seed %d: footprint %v MB, then %v MB", name, seed, prev, fp)
			}
			footprint[seed] = fp
		}
	}
}

// TestTracedRunOnlyObserves runs every workload's traced protocol at its
// small size. The counting, traced and single-worker repetitions must
// reproduce the plain repetition's statistics exactly, which the output
// check enforces.
func TestTracedRunOnlyObserves(t *testing.T) {
	spec := loadSpec(t)
	for _, name := range workloadNames() {
		wl := workloads[name]
		rep, err := traced(wl, wl.small, defaultSeed, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Errorf("%s: correct %v, %d of %d calls failed", name, rep.Correct, rep.Failed, rep.Attempted)
		}
		checkMetrics(t, rep.Metrics, spec.PerLayer)
		for _, n := range []string{"perfdb.build_s", "core.calibrate_s", "sched.select_calls", "trace.overhead", "metrics.hook_overhead"} {
			if !(rep.Metrics[n].Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", name, n, rep.Metrics[n].Value)
			}
		}
	}
}

func smtTable(t *testing.T) *perfdb.Table {
	t.Helper()
	tb, err := buildTable(nil, perfdb.SMTModel{Machine: uarch.DefaultSMT()})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestWrappedMAXTPStillObserves pins that the scheduler wrapper keeps
// sched.Observer: MAXTP still receives Observe and gives the unwrapped
// result.
func TestWrappedMAXTPStillObserves(t *testing.T) {
	tb := smtTable(t)
	w := workload.Workload{0, 1, 2, 3}
	cfg := eventsim.LatencyConfig{Lambda: 0.95 * fcfsCapacity(nil, tb, w), Jobs: 3000, SizeShape: sizeShape, Seed: 3}
	run := func(wrap func(sched.Scheduler) sched.Scheduler) *eventsim.Result {
		s, err := sched.New("MAXTP", tb, w)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eventsim.Latency(tb, w, wrap(s), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(func(s sched.Scheduler) sched.Scheduler { return s })
	tr := newTracer()
	got := run(func(s sched.Scheduler) sched.Scheduler { return tr.wrapSched(s, nil) })
	if *got != *want {
		t.Errorf("wrapped MAXTP gave %+v, unwrapped %+v", *got, *want)
	}
	if len(tr.observers) != 1 || tr.observers[0].obs.calls == 0 {
		t.Error("wrapped MAXTP received no Observe")
	}
}

// TestWrappedLearnerKeepsCapabilities pins that the learner wrapper keeps
// the optional interfaces the program asserts, and that a learnfarm
// repetition through it gives the unwrapped statistics.
func TestWrappedLearnerKeepsCapabilities(t *testing.T) {
	var rs online.RateSource = &tracedLearner{Pairwise: online.NewPairwise(4, 12, online.PairwiseConfig{})}
	if _, ok := rs.(online.EpochBumper); !ok {
		t.Error("wrapped learner is not an online.EpochBumper")
	}
	if _, ok := rs.(interface{ MaxJobWIPC(b, slots int) float64 }); !ok {
		t.Error("wrapped learner lost the MaxJobWIPC pruning bound")
	}

	wl := workloads["learnfarm"]
	b, err := wl.setup(wl.small, defaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.simulate(instr{})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	got, err := b.simulate(instr{tr: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.stats, want.stats) {
		t.Errorf("traced learnfarm gave %+v, untraced %+v", got.stats, want.stats)
	}
	s := tr.sums()
	if len(tr.learners) != wl.small.Servers || s.learnObs.calls == 0 || s.querySel.calls == 0 || s.query.calls == 0 {
		t.Errorf("learner wrappers saw %d learners, %d observations, %d+%d queries",
			len(tr.learners), s.learnObs.calls, s.querySel.calls, s.query.calls)
	}
}

// TestUpdateReference rewrites reference.json when run with -update: one
// repetition of every workload at both sizes at the default seed.
func TestUpdateReference(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite reference.json")
	}
	refs := map[string]map[string][]simStats{}
	for _, name := range workloadNames() {
		wl := workloads[name]
		refs[name] = map[string][]simStats{}
		for _, sz := range []size{wl.full, wl.small} {
			b, err := wl.setup(sz, defaultSeed, nil)
			if err != nil {
				t.Fatal(err)
			}
			r, err := b.simulate(instr{})
			if err != nil {
				t.Fatal(err)
			}
			if failed, why := verify(r.stats, nil, nil); failed > 0 {
				t.Fatalf("%s %s: %v", name, sz.Name, why)
			}
			refs[name][sz.Name] = r.stats
		}
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("reference.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
