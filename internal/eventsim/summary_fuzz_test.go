package eventsim

import (
	"math"
	"slices"
	"testing"

	"symbiosched/internal/perfdb"
	"symbiosched/internal/program"
	"symbiosched/internal/sched"
	"symbiosched/internal/workload"
)

// viaSelect hides a scheduler's concrete type, so a server hands it the
// queue through Select instead of keeping a summary for it. It forwards
// Observe, which MAXTP needs.
type viaSelect struct{ sched.Scheduler }

func (v viaSelect) Observe(cos workload.Coschedule, dt float64) {
	if o, ok := v.Scheduler.(sched.Observer); ok {
		o.Observe(cos, dt)
	}
}

// The fuzzer's job sizes and advance lengths. tieLo and tieHi are
// adjacent floats and tieAdv a decrement that rounds both to the same
// value: on the uniform table, where every rate is exactly 1, two
// running SRPT jobs of those sizes tie after one advance by tieAdv, with
// the younger job — the smaller one — ahead of the older.
var (
	tieLo     = math.Ldexp(8677192376095299, -40)
	tieHi     = math.Nextafter(tieLo, math.Inf(1))
	tieAdv    = math.Ldexp(7281855605542095, -41)
	fuzzSizes = []float64{1, math.Nextafter(1, 2), 0.5, 1e-12, 2.75, tieLo, tieHi, 1.0 / 3}
	fuzzDts   = []float64{0, 1e-3, 0.1, tieAdv, 0.5}
)

// FuzzServerQueueSummary drives random event sequences — arrivals of
// random types and sizes (equal ones, and ones below the completion
// epsilon, included), advances by random lengths (0 included) or to the
// next completion, crashes, and repairs that re-queue the victims under
// re-issued IDs, reusing job storage as the farm does — through MAXIT,
// SRPT and MAXTP servers over the mini SMT table and a uniform table.
// After every event it asserts that the summary each server keeps equals
// one built from its queue, and that a twin server handed the queue
// through Select runs, completes and integrates exactly the same jobs.
// Each input is two bytes per event: the operation (0-3 an arrival of
// that type, 4 advance to the next completion, 5 advance by a listed
// length, 6 crash, 7 repair) and its argument.
func FuzzServerQueueSummary(f *testing.F) {
	arrive := func(typ, size int) []byte { return []byte{byte(typ), byte(size)} }
	next := []byte{4, 0}
	adv := func(dt int) []byte { return []byte{5, byte(dt)} }
	crash, repair := []byte{6, 0}, []byte{7, 0}
	seq := func(evs ...[]byte) []byte { return slices.Concat(evs...) }
	// Two same-type jobs, the younger smaller, tie after a tieAdv advance.
	f.Add(seq(arrive(0, 6), arrive(0, 5), arrive(1, 0), adv(3), next, next, next))
	// A younger, shorter job of a type leaves from the middle of the
	// running prefix of MAXIT and MAXTP, with an older job of its type
	// still running and a younger one waiting.
	f.Add(seq(arrive(0, 4), arrive(0, 2), arrive(1, 0), arrive(2, 0), arrive(0, 0), next, next, next, next, next))
	// Equal sizes throughout.
	f.Add(seq(arrive(0, 0), arrive(0, 0), arrive(1, 0), arrive(1, 0), arrive(0, 0), arrive(2, 0), adv(2), next, arrive(0, 0), next, next))
	// Jobs below the completion epsilon, waiting behind others.
	f.Add(seq(arrive(0, 0), arrive(1, 4), arrive(2, 0), arrive(3, 4), arrive(0, 3), arrive(0, 3), adv(0), next, adv(1), next, next))
	// Zero-length advances between arrivals.
	f.Add(seq(arrive(0, 1), adv(0), arrive(0, 0), adv(0), arrive(1, 7), adv(0), next, adv(0), next))
	// A crash with a deep queue, then a repair re-queueing the victims
	// under fresh IDs behind newer arrivals' storage.
	f.Add(seq(arrive(0, 0), arrive(1, 4), arrive(2, 2), arrive(3, 7), arrive(0, 1), arrive(1, 0), adv(4), crash, arrive(0, 0), adv(2), repair, next, arrive(2, 3), next, next))
	// Completions recycle storage into later arrivals.
	f.Add(seq(arrive(0, 2), next, arrive(1, 2), next, arrive(0, 2), arrive(0, 2), next, next, arrive(3, 0), next))
	// A deep queue of every type drained to empty.
	deep := []byte{}
	for i := 0; i < 24; i++ {
		deep = append(deep, arrive(i%4, (i*5)%len(fuzzSizes))...)
	}
	for i := 0; i < 30; i++ {
		deep = append(deep, next...)
	}
	f.Add(deep)
	// Everything interleaved.
	f.Add(seq(arrive(2, 5), arrive(2, 6), arrive(3, 1), adv(3), crash, repair, arrive(1, 3), adv(1), arrive(0, 4), next, crash, adv(2), repair, next, next))

	mini := table(f)
	uniform := perfdb.Build(perfdb.UniformModel{K: 4}, program.Suite()[:4])
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		for _, tb := range []*perfdb.Table{mini, uniform} {
			for _, name := range []string{"MAXIT", "SRPT", "MAXTP"} {
				replaySummaryOps(t, tb, name, ops)
			}
		}
	})
}

// replaySummaryOps runs one input on a summary server and its Select
// twin; see FuzzServerQueueSummary.
func replaySummaryOps(t *testing.T, tb *perfdb.Table, name string, ops []byte) {
	t.Helper()
	mk := func() sched.Scheduler {
		s, err := sched.New(name, tb, w4())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	fleet := NewServers([]*perfdb.Table{tb, tb}, []sched.Scheduler{mk(), viaSelect{mk()}})
	sv, twin := &fleet[0], &fleet[1]
	if sv.q == nil || twin.q != nil {
		t.Fatalf("%s: summary server has summary %v, Select twin %v", name, sv.q != nil, twin.q != nil)
	}
	servers := []*Server{sv, twin}
	// Per server: recycled job storage and evicted jobs awaiting repair.
	free := [2][]*sched.Job{}
	evicted := [2][]*sched.Job{}
	nextID := 0
	ids := func(js []*sched.Job) []int {
		out := make([]int, len(js))
		for i, j := range js {
			out[i] = j.ID
		}
		return out
	}
	for e := 0; e+1 < len(ops); e += 2 {
		op, arg := ops[e]&7, int(ops[e+1])
		var done [2][]int
		switch {
		case op < 4:
			if sv.failed {
				continue
			}
			size := fuzzSizes[arg%len(fuzzSizes)]
			for i, s := range servers {
				var j *sched.Job
				if n := len(free[i]); n > 0 {
					j, free[i] = free[i][n-1], free[i][:n-1]
				} else {
					j = new(sched.Job)
				}
				*j = sched.Job{ID: nextID, Type: int(op), Size: size, Remaining: size}
				s.Add(j)
			}
			nextID++
		case op == 4 || op == 5:
			dt := sv.TimeToNextCompletion()
			if op == 5 {
				dt = fuzzDts[arg%len(fuzzDts)]
			} else if math.IsInf(dt, 1) {
				dt = 0.1
			}
			for i, s := range servers {
				got := s.Advance(dt)
				done[i] = ids(got)
				free[i] = append(free[i], got...)
			}
		case op == 6:
			if sv.failed {
				continue
			}
			for i, s := range servers {
				evicted[i] = append(evicted[i][:0], s.Fail()...)
			}
		default:
			if !sv.failed {
				continue
			}
			// Re-issue IDs in queue order, as the farm's retry path does.
			for k := range evicted[0] {
				for i := range servers {
					evicted[i][k].ID = nextID
				}
				nextID++
			}
			for i, s := range servers {
				s.Repair()
				for _, j := range evicted[i] {
					s.Add(j)
				}
				evicted[i] = evicted[i][:0]
			}
		}
		if !slices.Equal(done[0], done[1]) {
			t.Fatalf("%s/%s event %d: summary server completed %v, Select twin %v", name, tb.Name(), e/2, done[0], done[1])
		}
		if !sv.failed {
			for _, s := range servers {
				if err := s.Reschedule(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sv.q.Check(sv.jobs); err != nil {
			t.Fatalf("%s/%s event %d: %v", name, tb.Name(), e/2, err)
		}
		if a, b := ids(sv.jobs), ids(twin.jobs); !slices.Equal(a, b) {
			t.Fatalf("%s/%s event %d: queues %v and %v", name, tb.Name(), e/2, a, b)
		}
		if a, b := ids(sv.running), ids(twin.running); !slices.Equal(a, b) {
			t.Fatalf("%s/%s event %d: summary server runs %v, Select twin %v", name, tb.Name(), e/2, a, b)
		}
		if a, b := sv.TimeToNextCompletion(), twin.TimeToNextCompletion(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s/%s event %d: time to next completion %v and %v", name, tb.Name(), e/2, a, b)
		}
		if a, b := sv.WorkDone(), twin.WorkDone(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s/%s event %d: work done %v and %v", name, tb.Name(), e/2, a, b)
		}
	}
}
