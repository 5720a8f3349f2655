package eventsim

import (
	"math"
	"slices"
	"testing"

	"symbiosched/internal/metrics"
	"symbiosched/internal/online"
	"symbiosched/internal/perfdb"
	"symbiosched/internal/program"
	"symbiosched/internal/sched"
	"symbiosched/internal/workload"
)

// badScheduler selects nothing, violating the work-conserving contract.
type badScheduler struct{}

func (badScheduler) Name() string                   { return "bad" }
func (badScheduler) Select([]*sched.Job, int) []int { return nil }

// recordingObserver captures the measurement hook's reports.
type recordingObserver struct {
	cos      []workload.Coschedule
	dt       []float64
	progress [][]float64
}

func (r *recordingObserver) ObserveInterval(cos workload.Coschedule, dt float64, progress []float64) {
	r.cos = append(r.cos, append(workload.Coschedule(nil), cos...))
	r.dt = append(r.dt, dt)
	r.progress = append(r.progress, append([]float64(nil), progress...))
}

// TestServerObservationHook pins the online-learning feed: after every
// non-idle Advance the observer receives the canonical coschedule, the
// interval length and the true per-slot progress (WIPC * dt).
func TestServerObservationHook(t *testing.T) {
	tb := table(t)
	rec := &recordingObserver{}
	sv := NewServer(tb, &sched.FCFS{})
	sv.SetObserver(rec)
	sv.Advance(1, nil) // idle: no observation
	sv.Add(&sched.Job{ID: 0, Type: 0, Size: 2, Remaining: 2})
	sv.Add(&sched.Job{ID: 1, Type: 1, Size: 2, Remaining: 2})
	if err := sv.Reschedule(); err != nil {
		t.Fatal(err)
	}
	sv.Advance(0.5, nil)
	if len(rec.cos) != 1 {
		t.Fatalf("observer got %d intervals, want 1 (idle advance must not report)", len(rec.cos))
	}
	want := workload.NewCoschedule(0, 1)
	if rec.cos[0].Key() != want.Key() || rec.dt[0] != 0.5 {
		t.Errorf("observed (%v, %v), want (%v, 0.5)", rec.cos[0], rec.dt[0], want)
	}
	for i, typ := range want {
		exp := tb.JobWIPC(want, typ) * 0.5
		if got := rec.progress[0][i]; got != exp {
			t.Errorf("slot %d progress %v, want true WIPC*dt %v", i, got, exp)
		}
	}
}

// TestServerRatesDefaultToTable pins the decision-source plumbing.
func TestServerRatesDefaultToTable(t *testing.T) {
	tb := table(t)
	sv := NewServer(tb, &sched.FCFS{})
	if sv.Rates() != online.RateSource(tb) {
		t.Error("Rates() != table before SetRates")
	}
	est := online.Oracle{Table: tb}
	sv.SetRates(est)
	if sv.Rates() != online.RateSource(est) {
		t.Error("SetRates not exposed via Rates()")
	}
}

func TestServerStepping(t *testing.T) {
	tb := table(t)
	sv := NewServer(tb, &sched.FCFS{})
	if sv.K() != tb.K() || sv.Table() != tb {
		t.Fatal("accessors broken")
	}
	// Idle: infinite horizon, advancing accumulates empty time only.
	if dt := sv.TimeToNextCompletion(); !math.IsInf(dt, 1) {
		t.Errorf("idle TimeToNextCompletion = %v, want +Inf", dt)
	}
	sv.Advance(2.5, nil)
	if sv.EmptyTime() != 2.5 || sv.BusyTime() != 0 {
		t.Errorf("idle advance: empty %v busy %v", sv.EmptyTime(), sv.BusyTime())
	}
	// One job: runs solo at WIPC 1, so it completes in exactly Size.
	sv.Add(&sched.Job{ID: 0, Type: 0, Size: 2, Remaining: 2})
	if err := sv.Reschedule(); err != nil {
		t.Fatal(err)
	}
	if got := sv.Running(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Running = %v, want [0]", got)
	}
	dt := sv.TimeToNextCompletion()
	if math.Abs(dt-2) > 1e-9 {
		t.Errorf("solo TimeToNextCompletion = %v, want 2 (WIPC 1)", dt)
	}
	done := sv.Advance(dt, nil)
	if len(done) != 1 || done[0].ID != 0 {
		t.Fatalf("Advance completed %v, want job 0", done)
	}
	if sv.JobsInSystem() != 0 || sv.Dispatched() != 1 {
		t.Errorf("after completion: jobs %d dispatched %d", sv.JobsInSystem(), sv.Dispatched())
	}
	if math.Abs(sv.WorkDone()-2) > 1e-9 || math.Abs(sv.BusyTime()-2) > 1e-9 {
		t.Errorf("integrals: work %v busy %v, want 2, 2", sv.WorkDone(), sv.BusyTime())
	}
}

func TestServerRescheduleRejectsBadScheduler(t *testing.T) {
	sv := NewServer(table(t), badScheduler{})
	sv.Add(&sched.Job{ID: 0, Type: 0, Size: 1, Remaining: 1})
	if err := sv.Reschedule(); err == nil {
		t.Error("empty selection accepted")
	}
}

// TestServerRescheduleRejectsUnknownType pins that a job whose type lies
// outside the table's suite is an error when it would start running,
// not a silent probe of another coschedule's rank.
func TestServerRescheduleRejectsUnknownType(t *testing.T) {
	tb := table(t)
	for _, typ := range []int{-1, len(tb.Suite())} {
		sv := NewServer(tb, &sched.FCFS{})
		sv.Add(&sched.Job{ID: 0, Type: 0, Size: 1, Remaining: 1})
		sv.Add(&sched.Job{ID: 1, Type: typ, Size: 1, Remaining: 1})
		if err := sv.Reschedule(); err == nil {
			t.Errorf("type %d accepted", typ)
		}
	}
}

// twoProbe is the direct marginal-InstTP formula: the source's InstTP of
// the running coschedule plus one type-b job, minus that of the running
// coschedule (nothing to subtract when it is empty).
func twoProbe(rs online.RateSource, canon workload.Coschedule, b int) float64 {
	gain := rs.InstTP(workload.NewCoschedule(append(slices.Clone(canon), b)...))
	if len(canon) > 0 {
		gain -= rs.InstTP(canon)
	}
	return gain
}

// trainedPairwise returns a pairwise learner that has observed every
// multiset of 2..K types of tb at its true rates.
func trainedPairwise(tb *perfdb.Table) *online.Pairwise {
	p := online.NewPairwise(tb.K(), len(tb.Suite()), online.PairwiseConfig{})
	for size := 2; size <= tb.K(); size++ {
		for _, c := range workload.Multisets(len(tb.Suite()), size) {
			pr := make([]float64, len(c))
			for i, typ := range c {
				pr[i] = tb.JobWIPC(c, typ) * 0.5
			}
			p.ObserveInterval(c, 0.5, pr)
		}
	}
	return p
}

// TestMarginalInstTPMatchesTwoProbe pins the dispatch probe to the
// direct two-probe formula bit for bit, over the table (answered from
// its marginal rows), over online.Oracle wrapping it (rows too) and over
// a pairwise learner (probed), on idle, partly filled, full and stale
// servers. A full server has no row; over the table both the probe and
// the formula panic, since the table stores no K+1 coschedule. The
// instruments count row answers as hits and learned probes as misses.
func TestMarginalInstTPMatchesTwoProbe(t *testing.T) {
	tb := table(t)
	k := tb.K()
	states := []struct {
		name  string
		types []int
		stale bool
	}{
		{"idle", nil, false},
		{"one", []int{2}, false},
		{"partly", []int{3, 1}, false},
		{"k-1", []int{0, 3, 0}, false},
		{"full", []int{1, 2, 1, 0}, false},
		{"stale", []int{0, 2}, true},
	}
	sources := []struct {
		name    string
		rs      online.RateSource
		fromRow bool
	}{
		{"table", tb, true},
		{"oracle", online.Oracle{Table: tb}, true},
		{"pairwise", trainedPairwise(tb), false},
	}
	for _, src := range sources {
		for _, st := range states {
			sv := NewServer(tb, &sched.FCFS{})
			if src.rs != online.RateSource(tb) {
				sv.SetRates(src.rs)
			}
			met := NewServerMetrics(metrics.New())
			sv.SetMetrics(met)
			for i, typ := range st.types {
				size := 10.0
				if st.stale && i == 0 {
					size = 0.1 // completes first, leaving the server stale
				}
				sv.Add(&sched.Job{ID: i, Type: typ, Size: size, Remaining: size})
			}
			if err := sv.Reschedule(); err != nil {
				t.Fatal(err)
			}
			if st.stale {
				if done := sv.Advance(sv.TimeToNextCompletion(), nil); len(done) != 1 || sv.JobsInSystem() != 1 {
					t.Fatalf("stale setup: %d done, %d left", len(done), sv.JobsInSystem())
				}
			}
			canon := slices.Clone(sv.Running())
			for b := range tb.Suite() {
				if len(canon) == k && src.fromRow {
					if !panics(func() { sv.MarginalInstTP(b) }) || !panics(func() { twoProbe(src.rs, canon, b) }) {
						t.Errorf("%s/%s: probing a full server over the table must panic", src.name, st.name)
					}
					continue
				}
				got, want := sv.MarginalInstTP(b), twoProbe(src.rs, canon, b)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s/%s: MarginalInstTP(%d) = %v, two-probe formula %v", src.name, st.name, b, got, want)
				}
			}
			hits, misses := met.MargHit.Value(), met.MargMiss.Value()
			if probes := uint64(len(tb.Suite())); src.fromRow && (hits != probes || misses != 0) ||
				!src.fromRow && (hits != 0 || misses != probes) {
				t.Errorf("%s/%s: %d hits, %d misses over %d probes", src.name, st.name, hits, misses, probes)
			}
		}
	}
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestNewServersSlabIsolation pins the fleet slab's carving: servers
// share the queue slab, so a queue outgrowing its 2K share must move
// into memory of its own and never write into a neighbour's share, and
// a crash evicting more than 2K victims hands them all back.
func TestNewServersSlabIsolation(t *testing.T) {
	k1 := perfdb.Build(perfdb.UniformModel{K: 1}, program.Suite()[:1])
	fleet := NewServers([]*perfdb.Table{k1, k1, k1}, []sched.Scheduler{&sched.FCFS{}, &sched.FCFS{}, &sched.FCFS{}})
	left, mid, right := &fleet[0], &fleet[1], &fleet[2]
	job := func(id int) *sched.Job { return &sched.Job{ID: id, Size: 1, Remaining: 1} }
	ids := func(js []*sched.Job) []int {
		var out []int
		for _, j := range js {
			out = append(out, j.ID)
		}
		return out
	}
	left.Add(job(0))
	right.Add(job(1))
	for id := 2; id < 7; id++ {
		mid.Add(job(id)) // five jobs against a share of two
	}
	for _, sv := range []*Server{left, mid, right} {
		if err := sv.Reschedule(); err != nil {
			t.Fatal(err)
		}
	}
	if got := ids(left.jobs); !slices.Equal(got, []int{0}) {
		t.Fatalf("left queue %v after the middle queue grew, want [0]", got)
	}
	if got := ids(right.jobs); !slices.Equal(got, []int{1}) {
		t.Fatalf("right queue %v after the middle queue grew, want [1]", got)
	}
	victims := mid.Fail(nil)
	if got := ids(victims); !slices.Equal(got, []int{2, 3, 4, 5, 6}) {
		t.Fatalf("Fail evicted %v, want [2 3 4 5 6]", got)
	}
	// The neighbours complete into buffers of their own.
	for _, sv := range []*Server{left, right} {
		if done := sv.Advance(sv.TimeToNextCompletion(), nil); len(done) != 1 {
			t.Fatalf("neighbour completed %d jobs, want 1", len(done))
		}
	}
	if got := ids(victims); !slices.Equal(got, []int{2, 3, 4, 5, 6}) {
		t.Fatalf("victims %v after the neighbours completed, want [2 3 4 5 6]", got)
	}
}

// TestOnlyRunningJobsComplete pins that a waiting job never completes,
// however little work it holds: on a one-context FCFS server a job of
// 1e-12 work queued behind a unit job waits through an advance — all of
// whose work is the running job's — and completes only once it runs.
func TestOnlyRunningJobsComplete(t *testing.T) {
	k1 := perfdb.Build(perfdb.UniformModel{K: 1}, program.Suite()[:1])
	sv := NewServer(k1, &sched.FCFS{})
	unit := &sched.Job{ID: 0, Size: 1, Remaining: 1}
	tiny := &sched.Job{ID: 1, Size: 1e-12, Remaining: 1e-12}
	sv.Add(unit)
	sv.Add(tiny)
	if err := sv.Reschedule(); err != nil {
		t.Fatal(err)
	}
	if done := sv.Advance(0.25, nil); len(done) != 0 {
		t.Fatalf("Advance(0.25) completed %d jobs, want none (the tiny job is waiting)", len(done))
	}
	if sv.JobsInSystem() != 2 || sv.WorkDone() != 0.25 || tiny.Remaining != 1e-12 {
		t.Fatalf("after Advance(0.25): %d jobs, work %v, tiny job left %v; want 2, 0.25, 1e-12",
			sv.JobsInSystem(), sv.WorkDone(), tiny.Remaining)
	}
	if done := sv.Advance(sv.TimeToNextCompletion(), nil); len(done) != 1 || done[0] != unit {
		t.Fatalf("the unit job's completion returned %v", done)
	}
	if err := sv.Reschedule(); err != nil {
		t.Fatal(err)
	}
	if done := sv.Advance(sv.TimeToNextCompletion(), nil); len(done) != 1 || done[0] != tiny {
		t.Fatalf("the tiny job's completion returned %v", done)
	}
	if sv.JobsInSystem() != 0 {
		t.Fatalf("%d jobs left, want 0", sv.JobsInSystem())
	}
}
