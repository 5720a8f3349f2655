package eventsim

import (
	"math"
	"slices"
	"testing"

	"symbiosched/internal/numeric"
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
// re-issued IDs, reusing job storage as the farm does — through FCFS,
// MAXIT, SRPT and MAXTP servers over the mini SMT table and uniform
// tables of four and six contexts. Each input runs on three twins with jobs of their own: the
// server (for MAXIT, SRPT and MAXTP one that keeps a queue summary), a
// server handed the queue through Select, and refServer, which steps
// Job.Remaining in place as the server did before its running slots.
// After every event it asserts that the summary equals one built from
// the queue; that the three run, complete and integrate exactly the same
// jobs at the same times; and that every job outside a slot — queued,
// completed or evicted — holds bitwise the reference's Remaining, which
// is what the slots' write-back rule promises. Each input is two bytes
// per event: the operation (0-3 an arrival of that type, 4 advance to
// the next completion, 5 advance by a listed length, 6 crash, 7 repair)
// and its argument.
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
	// MAXIT preempts: on the mini table four running jobs progress, then
	// an arrival makes a coschedule without one of them the best, which
	// goes back to the queue holding its slot's work and later resumes.
	f.Add(maxitPreemption)
	// A crash whose victims keep their work, as under fault.Resume: every
	// running job has progressed, and each resumes from its slot's work
	// once the repair re-queues it.
	f.Add(seq(arrive(0, 4), arrive(1, 0), arrive(2, 7), arrive(3, 0), arrive(1, 1), adv(2), adv(4), crash, repair, next, next, next, next, next, next))

	mini := table(f)
	uniform := perfdb.Build(perfdb.UniformModel{K: 4}, program.Suite()[:4])
	// Six contexts: the slots come from the fleet's slot slab.
	wide := perfdb.Build(perfdb.UniformModel{K: 6}, program.Suite()[:4])
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		for _, tb := range []*perfdb.Table{mini, uniform, wide} {
			for _, name := range []string{"FCFS", "MAXIT", "SRPT", "MAXTP"} {
				replaySummaryOps(t, tb, name, ops)
			}
		}
	})
}

// maxitPreemption is the fuzz seed in which MAXIT sends a running job
// back to the queue on the mini table; TestMaxitPreemptionSeed pins that
// it does.
var maxitPreemption = []byte{0, 0, 0, 0, 3, 0, 3, 0, 5, 2, 1, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0}

// TestMaxitPreemptionSeed pins that the preemption seed preempts: some
// job runs, stops running while still queued, and runs again.
func TestMaxitPreemptionSeed(t *testing.T) {
	tb := table(t)
	s, err := sched.New("MAXIT", tb, w4())
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer(tb, s)
	var jobs []*sched.Job
	wasRunning := map[*sched.Job]bool{}
	preempted := false
	for e := 0; e+1 < len(maxitPreemption); e += 2 {
		op, arg := maxitPreemption[e], int(maxitPreemption[e+1])
		switch {
		case op < 4:
			size := fuzzSizes[arg%len(fuzzSizes)]
			j := &sched.Job{ID: len(jobs), Type: int(op), Size: size, Remaining: size}
			jobs = append(jobs, j)
			sv.Add(j)
		case op == 4:
			sv.Advance(sv.TimeToNextCompletion(), nil)
		default:
			sv.Advance(fuzzDts[arg%len(fuzzDts)], nil)
		}
		if err := sv.Reschedule(); err != nil {
			t.Fatal(err)
		}
		now := map[*sched.Job]bool{}
		for _, s := range sv.running() {
			now[s.job] = true
		}
		for j := range wasRunning {
			if !now[j] && slices.Contains(sv.jobs, j) {
				preempted = true
			}
		}
		wasRunning = now
	}
	if !preempted {
		t.Fatal("no running job went back to the queue")
	}
}

// refServer steps a queue as Server did before its running slots: every
// decision is handed the queue through Select, and Advance decrements
// the running jobs' Job.Remaining in place, in running order, at the
// rates of the running coschedule's table entry.
type refServer struct {
	tb      *perfdb.Table
	s       sched.Scheduler
	jobs    []*sched.Job
	running []*sched.Job
	failed  bool
	work    numeric.KahanSum
}

func (r *refServer) add(j *sched.Job) { r.jobs = append(r.jobs, j) }

func (r *refServer) reschedule() {
	r.running = r.running[:0]
	if len(r.jobs) == 0 {
		return
	}
	for _, i := range r.s.Select(r.jobs, r.tb.K()) {
		r.running = append(r.running, r.jobs[i])
	}
}

// canon returns the running jobs' types, sorted.
func (r *refServer) canon() workload.Coschedule {
	c := workload.Coschedule{}
	for _, j := range r.running {
		c = append(c, j.Type)
	}
	slices.Sort(c)
	return c
}

func (r *refServer) ttc() float64 {
	dt := math.Inf(1)
	if len(r.running) == 0 {
		return dt
	}
	wipc := r.tb.Entry(r.canon()).TypeWIPCs()
	for _, j := range r.running {
		if d := j.Remaining / wipc[j.Type]; d < dt {
			dt = d
		}
	}
	return dt
}

func (r *refServer) advance(dt float64) []*sched.Job {
	if r.failed || len(r.jobs) == 0 {
		return nil
	}
	var done []*sched.Job
	canon := r.canon()
	if len(r.running) > 0 {
		wipc := r.tb.Entry(canon).TypeWIPCs()
		for _, j := range r.running {
			adv := wipc[j.Type] * dt
			j.Remaining -= adv
			r.work.Add(adv)
			if j.Remaining <= eps {
				done = append(done, j)
			}
		}
	}
	if o, ok := r.s.(sched.Observer); ok {
		o.Observe(canon, dt)
	}
	if len(done) > 0 {
		slices.SortFunc(done, func(a, b *sched.Job) int { return a.ID - b.ID })
		r.jobs = slices.DeleteFunc(r.jobs, func(j *sched.Job) bool { return slices.Contains(done, j) })
		r.running = r.running[:0]
	}
	return done
}

func (r *refServer) fail() []*sched.Job {
	victims := slices.Clone(r.jobs)
	r.jobs, r.running, r.failed = r.jobs[:0], r.running[:0], true
	return victims
}

// replaySummaryOps runs one input on the three twins; see
// FuzzServerQueueSummary.
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
	if want := name != "FCFS"; (sv.q != nil) != want || twin.q != nil {
		t.Fatalf("%s: server has summary %v, Select twin %v", name, sv.q != nil, twin.q != nil)
	}
	ref := &refServer{tb: tb, s: viaSelect{mk()}}
	servers := []*Server{sv, twin}
	// Per twin (the two servers, then the reference): recycled job
	// storage and evicted jobs awaiting repair.
	var free, evicted [3][]*sched.Job
	nextID := 0
	ids := func(js []*sched.Job) []int {
		out := make([]int, len(js))
		for i, j := range js {
			out[i] = j.ID
		}
		return out
	}
	runIDs := func(s *Server) []int {
		var out []int
		for _, sl := range s.running() {
			out = append(out, sl.job.ID)
		}
		return out
	}
	// sameRemaining fails unless the jobs of the three twins hold
	// bitwise equal work, job by job.
	sameRemaining := func(e int, what string, js [3][]*sched.Job) {
		t.Helper()
		for k, r := range js[2] {
			for i := range servers {
				if a := js[i][k].Remaining; math.Float64bits(a) != math.Float64bits(r.Remaining) {
					t.Fatalf("%s/%s event %d: %s job %d of twin %d holds %v, the reference %v",
						name, tb.Name(), e, what, js[i][k].ID, i, a, r.Remaining)
				}
			}
		}
	}
	for e := 0; e+1 < len(ops); e += 2 {
		op, arg := ops[e]&7, int(ops[e+1])
		var done [3][]*sched.Job
		switch {
		case op < 4:
			if sv.failed {
				continue
			}
			size := fuzzSizes[arg%len(fuzzSizes)]
			for i := range free {
				var j *sched.Job
				if n := len(free[i]); n > 0 {
					j, free[i] = free[i][n-1], free[i][:n-1]
				} else {
					j = new(sched.Job)
				}
				*j = sched.Job{ID: nextID, Type: int(op), Size: size, Remaining: size}
				if i < 2 {
					servers[i].Add(j)
				} else {
					ref.add(j)
				}
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
				done[i] = s.Advance(dt, nil)
			}
			done[2] = ref.advance(dt)
			sameRemaining(e/2, "completed", done)
			for i := range free {
				free[i] = append(free[i], done[i]...)
			}
		case op == 6:
			if sv.failed {
				continue
			}
			for i, s := range servers {
				evicted[i] = s.Fail(evicted[i][:0])
			}
			evicted[2] = append(evicted[2][:0], ref.fail()...)
			sameRemaining(e/2, "evicted", evicted)
		default:
			if !sv.failed {
				continue
			}
			// Re-issue IDs in queue order, as the farm's retry path does.
			for k := range evicted[0] {
				for i := range evicted {
					evicted[i][k].ID = nextID
				}
				nextID++
			}
			for i, s := range servers {
				s.Repair()
				for _, j := range evicted[i] {
					s.Add(j)
				}
			}
			ref.failed = false
			for _, j := range evicted[2] {
				ref.add(j)
			}
			for i := range evicted {
				evicted[i] = evicted[i][:0]
			}
		}
		for i := range servers {
			if a, b := ids(done[i]), ids(done[2]); !slices.Equal(a, b) {
				t.Fatalf("%s/%s event %d: twin %d completed %v, the reference %v", name, tb.Name(), e/2, i, a, b)
			}
		}
		if !sv.failed {
			for _, s := range servers {
				if err := s.Reschedule(); err != nil {
					t.Fatal(err)
				}
			}
			ref.reschedule()
		}
		if sv.q != nil {
			if err := sv.q.Check(sv.jobs); err != nil {
				t.Fatalf("%s/%s event %d: %v", name, tb.Name(), e/2, err)
			}
		}
		// The queued jobs no slot holds carry the reference's work.
		var queued [3][]*sched.Job
		for i, s := range servers {
			for _, j := range s.jobs {
				if !slices.ContainsFunc(s.slots(), func(sl slot) bool { return sl.job == j }) {
					queued[i] = append(queued[i], j)
				}
			}
		}
		for _, j := range ref.jobs {
			if !slices.Contains(ref.running, j) {
				queued[2] = append(queued[2], j)
			}
		}
		if a, b := ids(queued[0]), ids(queued[2]); !slices.Equal(a, b) {
			t.Fatalf("%s/%s event %d: jobs outside slots %v, outside the reference's running set %v", name, tb.Name(), e/2, a, b)
		}
		sameRemaining(e/2, "queued", queued)
		for i, s := range servers {
			if a, b := ids(s.jobs), ids(ref.jobs); !slices.Equal(a, b) {
				t.Fatalf("%s/%s event %d: twin %d queue %v, the reference %v", name, tb.Name(), e/2, i, a, b)
			}
			if a, b := runIDs(s), ids(ref.running); !slices.Equal(a, b) {
				t.Fatalf("%s/%s event %d: twin %d runs %v, the reference %v", name, tb.Name(), e/2, i, a, b)
			}
			for k, sl := range s.running() {
				if a, b := sl.rem, ref.running[k].Remaining; math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%s/%s event %d: twin %d slot %d holds %v, the reference's job %v", name, tb.Name(), e/2, i, k, a, b)
				}
			}
			if a, b := s.TimeToNextCompletion(), ref.ttc(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s/%s event %d: twin %d time to next completion %v, the reference %v", name, tb.Name(), e/2, i, a, b)
			}
			if a, b := s.WorkDone(), ref.work.Value(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s/%s event %d: twin %d work done %v, the reference %v", name, tb.Name(), e/2, i, a, b)
			}
		}
	}
}
