package eventsim

import (
	"testing"

	"symbiosched/internal/alloctest"
	"symbiosched/internal/online"
	"symbiosched/internal/sched"
)

// TestServerAdvanceZeroAllocs pins the stepping hot path: with no
// observer installed, advancing a busy server (including the fused
// next-completion refresh) must not allocate. Completions are excluded —
// they hand back the reusable done buffer and trigger a reschedule — so
// the run advances in slices far smaller than any job's remaining work.
func TestServerAdvanceZeroAllocs(t *testing.T) {
	tb := table(t)
	sv := NewServer(tb, &sched.MAXIT{Rates: tb})
	for i := 0; i < 6; i++ {
		sv.Add(&sched.Job{ID: i, Type: i % 4, Size: 1e9, Remaining: 1e9})
	}
	if err := sv.Reschedule(); err != nil {
		t.Fatal(err)
	}
	sv.Advance(0.25, nil) // grow scratch once
	allocs := testing.AllocsPerRun(200, func() {
		sv.Advance(0.25, nil)
	})
	if allocs != 0 {
		t.Errorf("Server.Advance allocates %v times per call, want 0", allocs)
	}
}

// TestServerRescheduleZeroAllocs pins the other half of the per-event
// path: re-running a memo-warm MAXIT and refreshing the cached rates and
// next-completion time is allocation-free too.
func TestServerRescheduleZeroAllocs(t *testing.T) {
	tb := table(t)
	sv := NewServer(tb, &sched.MAXIT{Rates: tb})
	for i := 0; i < 6; i++ {
		sv.Add(&sched.Job{ID: i, Type: i % 4, Size: 1e9, Remaining: 1e9})
	}
	if err := sv.Reschedule(); err != nil { // warm scratch and memo
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := sv.Reschedule(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Server.Reschedule allocates %v times per call, want 0", allocs)
	}
}

// TestServerMarginalZeroAllocs pins the dispatch probe on both of its
// paths: the table's marginal row and the learned source's two probes
// through per-server scratch.
func TestServerMarginalZeroAllocs(t *testing.T) {
	tb := table(t)
	for _, rs := range []online.RateSource{tb, trainedPairwise(tb)} {
		sv := NewServer(tb, &sched.FCFS{})
		sv.SetRates(rs)
		sv.Add(&sched.Job{ID: 0, Type: 1, Size: 10, Remaining: 10})
		sv.Add(&sched.Job{ID: 1, Type: 3, Size: 10, Remaining: 10})
		if err := sv.Reschedule(); err != nil {
			t.Fatal(err)
		}
		sv.MarginalInstTP(0) // grow the candidate scratch and warm the learner
		allocs := testing.AllocsPerRun(200, func() {
			for b := range tb.Suite() {
				sv.MarginalInstTP(b)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: MarginalInstTP allocates %v times per sweep, want 0", rs.Name(), allocs)
		}
	}
}

// TestLatencyLoopAllocs pins the single-server event loop's steady
// state: jobs are recycled through the stream and the server's scratch is
// carved at construction, so an additional job costs no allocation. A
// job object per arrival would read one allocation, and 48 bytes; the
// stream's 256-job chunks alone would still read 48 bytes, which is what
// pins the recycling.
func TestLatencyLoopAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	tb := table(t)
	allocs, bytes := alloctest.MarginalPerJob(t, func(jobs int) {
		cfg := LatencyConfig{Lambda: 1, Jobs: jobs, SizeShape: 4, Seed: 3}
		if _, err := Latency(tb, w4(), &sched.MAXIT{Rates: tb}, cfg); err != nil {
			t.Fatal(err)
		}
	})
	// Queues and the free list grow only with the run's peak in flight.
	const maxAllocs, maxBytes = 0.01, 4
	if allocs > maxAllocs || bytes > maxBytes {
		t.Fatalf("latency loop allocates %.3f times and %.2f bytes per job, want <= %v and <= %v",
			allocs, bytes, maxAllocs, maxBytes)
	}
}
