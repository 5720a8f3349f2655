package sched

import (
	"fmt"
	"testing"

	"symbiosched/internal/stats"
	"symbiosched/internal/workload"
)

// benchQueues builds nq deterministic ID-ordered job queues of the given
// depth over the 4-type mini table, with varied remaining work so SRPT's
// preference order is exercised. Queues rotate across iterations so the
// benchmark measures a mix of repeated and fresh count multisets — the
// steady-state shape of an event loop near saturation.
func benchQueues(nq, depth int) [][]*Job {
	rng := stats.NewRNG(42)
	queues := make([][]*Job, nq)
	for qi := range queues {
		js := make([]*Job, depth)
		for i := range js {
			size := 0.5 + rng.Float64()
			js[i] = &Job{
				ID:        qi*depth + i,
				Type:      rng.Intn(4),
				Size:      size,
				Remaining: size * (0.1 + 0.9*rng.Float64()),
				Arrival:   float64(i),
			}
		}
		queues[qi] = js
	}
	return queues
}

// BenchmarkSchedulerSelect measures the decision hot path: one Select
// call per event over the oracle table, across scheduler and queue depth.
// This is the innermost loop of every latency/throughput/farm experiment.
func BenchmarkSchedulerSelect(b *testing.B) {
	tb := table(b)
	w := workload.Workload{0, 1, 2, 3}
	for _, name := range []string{"FCFS", "MAXIT", "SRPT", "MAXTP"} {
		for _, depth := range []int{4, 8, 16, 32} {
			b.Run(fmt.Sprintf("%s/depth=%d", name, depth), func(b *testing.B) {
				s, err := New(name, tb, w)
				if err != nil {
					b.Fatal(err)
				}
				queues := benchQueues(16, depth)
				// Warm once so memoized paths measure steady state.
				for _, q := range queues {
					if got := s.Select(q, tb.K()); len(got) == 0 {
						b.Fatal("empty selection")
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Select(queues[i%len(queues)], tb.K())
				}
			})
		}
	}
}

// BenchmarkSRPTWalk times SRPT's two walks, pruned and full, over
// queues grouped by how many candidates a K=4 decision has, which is
// what srptPruneFrom chooses by. Queues are 2 to 32 jobs deep over the
// 4-type mini table, with Erlang-4 sizes part done, as in fig5.
func BenchmarkSRPTWalk(b *testing.B) {
	tb := table(b)
	const k = 4
	rng := stats.NewRNG(5)
	byCands := map[int][][]*Job{}
	var e enumerator
	for id := 0; id < 100_000; {
		js := make([]*Job, 2+rng.Intn(31))
		for i := range js {
			size := 0.0
			for range 4 {
				size += rng.Exp(4)
			}
			js[i] = &Job{ID: id, Type: rng.Intn(4), Size: size, Remaining: size * rng.Float64()}
			id++
		}
		var q Summary
		q.build(js, true)
		e.reset(&q)
		c := e.candidates(min(k, len(js)), 1<<30)
		byCands[c] = append(byCands[c], js)
	}
	for _, c := range []int{2, 4, 8, 12, 16, 20, 24, 30, 35} {
		for _, prune := range []bool{false, true} {
			walk := "full"
			if prune {
				walk = "pruned"
			}
			b.Run(fmt.Sprintf("cands=%d/%s", c, walk), func(b *testing.B) {
				s := &SRPT{Rates: tb}
				queues := byCands[c]
				for i := 0; i < b.N; i++ {
					js := queues[i%len(queues)]
					s.sum.build(js, true)
					s.enum.reset(&s.sum)
					s.walk(&s.sum, min(k, len(js)), prune)
				}
			})
		}
	}
}
