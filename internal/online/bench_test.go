package online_test

import (
	"testing"

	"symbiosched/internal/online"
	"symbiosched/internal/program"
	"symbiosched/internal/workload"
)

// BenchmarkOnlineEstimator measures the estimators' hot path as the event
// loop exercises it: one interval observation followed by one InstTP
// query (the quantity MAXIT evaluates per candidate coschedule). The
// baseline is recorded in BENCH_online.json.
func BenchmarkOnlineEstimator(b *testing.B) {
	tb := table(b)
	coschedules := allCoschedules(tb)
	progress := make([][]float64, len(coschedules))
	for i, c := range coschedules {
		progress[i] = make([]float64, len(c))
		for j, typ := range c {
			progress[i][j] = tb.JobWIPC(c, typ) * 0.25
		}
	}
	for _, name := range []string{"oracle", "sampler", "pairwise"} {
		b.Run(name, func(b *testing.B) {
			est, err := online.New(name, tb, 1)
			if err != nil {
				b.Fatal(err)
			}
			var sink float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ci := i % len(coschedules)
				est.ObserveInterval(coschedules[ci], 0.25, progress[ci])
				sink += est.InstTP(coschedules[(i*7+3)%len(coschedules)])
			}
			_ = sink
		})
	}
	// A learner sized to the whole suite but fed only a four-type mix,
	// as on a farm: the re-solve eliminates the mix's block, not the
	// suite's n x n system. The runs above use the four-type suite, where
	// the block is the whole system.
	b.Run("pairwise/suite-mix", func(b *testing.B) {
		cos, progress := suiteMix(tb, 0.25)
		est := online.NewPairwise(tb.K(), len(program.Suite()), online.PairwiseConfig{})
		var sink float64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ci := i % len(cos)
			est.ObserveInterval(cos[ci], 0.25, progress[ci])
			sink += est.InstTP(cos[(i*7+3)%len(cos)])
		}
		_ = sink
	})
	b.Run("sampler/query-only", func(b *testing.B) {
		est, _ := online.New("sampler", tb, 1)
		for i, c := range coschedules {
			est.ObserveInterval(c, 1, progress[i])
		}
		benchQueries(b, est, coschedules)
	})
	b.Run("pairwise/query-only", func(b *testing.B) {
		est, _ := online.New("pairwise", tb, 1)
		for i, c := range coschedules {
			est.ObserveInterval(c, 1, progress[i])
		}
		benchQueries(b, est, coschedules)
	})
}

func benchQueries(b *testing.B, rs online.RateSource, coschedules []workload.Coschedule) {
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += rs.InstTP(coschedules[i%len(coschedules)])
	}
	_ = sink
}
