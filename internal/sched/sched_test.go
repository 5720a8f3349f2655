package sched

import (
	"slices"
	"sync"
	"testing"

	"symbiosched/internal/core"
	"symbiosched/internal/perfdb"
	"symbiosched/internal/program"
	"symbiosched/internal/uarch"
	"symbiosched/internal/workload"
)

var (
	once sync.Once
	tab  *perfdb.Table
)

func table(t testing.TB) *perfdb.Table {
	t.Helper()
	once.Do(func() {
		suite := program.Suite()
		mini := []program.Profile{suite[1], suite[5], suite[6], suite[7]} // calculix, hmmer, libq, mcf
		tab = perfdb.Build(perfdb.SMTModel{Machine: uarch.DefaultSMT()}, mini)
	})
	return tab
}

func jobs(types ...int) []*Job {
	out := make([]*Job, len(types))
	for i, typ := range types {
		out[i] = &Job{ID: i, Type: typ, Size: 1, Remaining: 1, Arrival: float64(i)}
	}
	return out
}

func TestFCFSOldestFirst(t *testing.T) {
	js := jobs(0, 1, 2, 3, 0, 1)
	sel := (&FCFS{}).Select(js, 4)
	if len(sel) != 4 {
		t.Fatalf("selected %d jobs", len(sel))
	}
	for i, idx := range sel {
		if js[idx].ID != i {
			t.Errorf("FCFS selected %v, want the 4 oldest", sel)
		}
	}
}

func TestFCFSFewerJobsThanContexts(t *testing.T) {
	js := jobs(0, 1)
	if sel := (&FCFS{}).Select(js, 4); len(sel) != 2 {
		t.Errorf("selected %d, want 2", len(sel))
	}
}

func TestMAXITPicksHighestInstTP(t *testing.T) {
	tb := table(t)
	m := &MAXIT{Rates: tb}
	// Offer every type twice; MAXIT must find the composition with the
	// highest instantaneous throughput among all multisets.
	js := jobs(0, 0, 1, 1, 2, 2, 3, 3)
	sel := m.Select(js, 4)
	if len(sel) != 4 {
		t.Fatalf("selected %d jobs", len(sel))
	}
	cos := make(workload.Coschedule, 0, 4)
	for _, idx := range sel {
		cos = append(cos, js[idx].Type)
	}
	got := tb.InstTP(workload.NewCoschedule(cos...))
	// Exhaustive check over all multisets of available types.
	best := 0.0
	for _, c := range workload.Multisets(4, 4) {
		feasible := true
		for _, typ := range c.Types() {
			if c.Count(typ) > 2 {
				feasible = false
			}
		}
		if feasible {
			if tp := tb.InstTP(c); tp > best {
				best = tp
			}
		}
	}
	if got < best-1e-9 {
		t.Errorf("MAXIT picked instTP %v, best feasible %v", got, best)
	}
}

func TestMAXITWorkConserving(t *testing.T) {
	tb := table(t)
	m := &MAXIT{Rates: tb}
	js := jobs(3, 3)
	if sel := m.Select(js, 4); len(sel) != 2 {
		t.Errorf("MAXIT selected %d of 2 jobs; must be work-conserving", len(sel))
	}
}

func TestSRPTPrefersShortJobs(t *testing.T) {
	tb := table(t)
	s := &SRPT{Rates: tb}
	// Five same-type jobs with distinct remaining sizes: the four shortest
	// must be picked.
	js := jobs(0, 0, 0, 0, 0)
	js[0].Remaining = 5
	js[1].Remaining = 1
	js[2].Remaining = 2
	js[3].Remaining = 3
	js[4].Remaining = 4
	sel := s.Select(js, 4)
	for _, idx := range sel {
		if idx == 0 {
			t.Errorf("SRPT selected the longest job")
		}
	}
}

func TestSRPTAccountsForRates(t *testing.T) {
	tb := table(t)
	s := &SRPT{Rates: tb}
	js := jobs(0, 1, 2, 3, 0, 1)
	sel := s.Select(js, 4)
	if len(sel) != 4 {
		t.Fatalf("selected %d jobs", len(sel))
	}
}

func TestMAXTPFollowsLPSupport(t *testing.T) {
	tb := table(t)
	w := workload.Workload{0, 1, 2, 3}
	m, err := NewMAXTP(tb, w)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.Optimal(tb, w)
	if err != nil {
		t.Fatal(err)
	}
	support := map[uint64]bool{}
	for _, f := range opt.NonZero(1e-9) {
		support[perfdb.Key(f.Cos)] = true
	}
	// With all types amply available and positive elapsed deficit, MAXTP
	// must select a support coschedule.
	m.Observe(workload.NewCoschedule(0, 0, 0, 0), 1) // creates deficits for the support
	js := jobs(0, 0, 1, 1, 2, 2, 3, 3)
	sel := m.Select(js, 4)
	cos := make(workload.Coschedule, 0, 4)
	for _, idx := range sel {
		cos = append(cos, js[idx].Type)
	}
	if !support[perfdb.Key(workload.NewCoschedule(cos...))] {
		t.Errorf("MAXTP selected %v, not in LP support", cos)
	}
}

func TestMAXTPFallsBackWhenNotComposable(t *testing.T) {
	tb := table(t)
	w := workload.Workload{0, 1, 2, 3}
	m, err := NewMAXTP(tb, w)
	if err != nil {
		t.Fatal(err)
	}
	// Only two jobs in the system: no size-4 support coschedule is
	// composable, so MAXTP must fall back to MAXIT and still run them.
	js := jobs(0, 1)
	if sel := m.Select(js, 4); len(sel) != 2 {
		t.Errorf("fallback selected %d of 2 jobs", len(sel))
	}
}

// TestMAXTPObserveTracksTime pins MAXTP's clocks: observing an LP
// support coschedule adds to elapsed and to that fraction's selected
// time alone, and observing a coschedule outside the support moves only
// elapsed.
func TestMAXTPObserveTracksTime(t *testing.T) {
	tb := table(t)
	w := workload.Workload{0, 1, 2, 3}
	m, err := NewMAXTP(tb, w)
	if err != nil {
		t.Fatal(err)
	}
	support := m.fractions[0].Cos
	m.Observe(support, 2.5)
	if m.elapsed != 2.5 {
		t.Errorf("elapsed = %v after a 2.5 support interval", m.elapsed)
	}
	for fi, f := range m.fractions {
		want := 0.0
		if perfdb.Key(f.Cos) == perfdb.Key(support) {
			want = 2.5
		}
		if m.selected[fi] != want {
			t.Errorf("fraction %v: selected time %v, want %v", f.Cos, m.selected[fi], want)
		}
	}
	outside := workload.NewCoschedule(0, 0, 0, 0)
	for _, f := range m.fractions {
		if perfdb.Key(f.Cos) == perfdb.Key(outside) {
			t.Fatalf("test setup: %v is in the LP support", outside)
		}
	}
	before := slices.Clone(m.selected)
	m.Observe(outside, 1)
	if m.elapsed != 3.5 {
		t.Errorf("elapsed = %v after a further 1.0 interval, want 3.5", m.elapsed)
	}
	if !slices.Equal(m.selected, before) {
		t.Errorf("observing %v outside the support moved selected times %v -> %v", outside, before, m.selected)
	}
}

func TestEnumeratorCountAndFeasibility(t *testing.T) {
	js := jobs(0, 0, 1, 2)
	var q Summary
	q.build(js, false)
	var e enumerator
	e.reset(&q)
	// Multisets of size 3 with at most {0:2, 1:1, 2:1}:
	// enumerate: {0,0,1},{0,0,2},{0,1,2} = 3.
	n := 0
	for ok := e.firstCandidate(3); ok; ok = e.next() {
		e.buildCos()
		if len(e.cos) != 3 {
			t.Errorf("candidate %v has %d slots, want 3", e.cos, len(e.cos))
		}
		n++
	}
	if n != 3 {
		t.Errorf("enumerated %d candidates, want 3", n)
	}
}

func TestSchedulerNames(t *testing.T) {
	tb := table(t)
	w := workload.Workload{0, 1, 2, 3}
	m, _ := NewMAXTP(tb, w)
	for _, s := range []Scheduler{&FCFS{}, &MAXIT{Rates: tb}, &SRPT{Rates: tb}, m} {
		if s.Name() == "" {
			t.Errorf("%T has empty name", s)
		}
	}
}
