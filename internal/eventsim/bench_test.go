package eventsim

import (
	"fmt"
	"testing"

	"symbiosched/internal/sched"
)

// BenchmarkServerReschedule replays a near-saturated event stream on
// one server held at a fixed queue depth: events alternate between a
// completion (advance to the next completion) and an arrival (advance
// half way to it, then top the queue back up to the depth), and every
// event reschedules. An op is one event. Unlike
// BenchmarkSchedulerSelect, which hands Select fresh queues, this times
// the server's own per-event decision path — the queue summary MAXIT,
// SRPT and MAXTP servers keep up to date — over the oracle table, with
// Erlang-4 job sizes as in fig5.
func BenchmarkServerReschedule(b *testing.B) {
	tb := table(b)
	for _, name := range []string{"MAXIT", "SRPT", "MAXTP"} {
		for _, depth := range []int{4, 8, 16, 32} {
			b.Run(fmt.Sprintf("%s/depth=%d", name, depth), func(b *testing.B) {
				s, err := sched.New(name, tb, w4())
				if err != nil {
					b.Fatal(err)
				}
				sv := NewServer(tb, s)
				stream := NewJobStream(w4(), LatencyConfig{SizeShape: 4, Seed: 7})
				now := 0.0
				var done []*sched.Job
				event := func(i int) {
					dt := sv.TimeToNextCompletion()
					if i%2 == 1 {
						dt /= 2
					}
					now += dt
					done = sv.Advance(dt, done[:0])
					for _, j := range done {
						stream.Recycle(j)
					}
					for i%2 == 1 && sv.JobsInSystem() < depth {
						sv.Add(stream.Next(now))
					}
					if err := sv.Reschedule(); err != nil {
						b.Fatal(err)
					}
				}
				for sv.JobsInSystem() < depth {
					sv.Add(stream.Next(0))
				}
				if err := sv.Reschedule(); err != nil {
					b.Fatal(err)
				}
				// Warm the scratch, the memo and the job free list.
				for i := 0; i < 1000; i++ {
					event(i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					event(i)
				}
			})
		}
	}
}
