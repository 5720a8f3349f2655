package farm

import (
	"fmt"
	"runtime"
	"testing"

	"symbiosched/internal/fault"
)

// BenchmarkFarmScaling measures one farm simulation at the engine's
// default execution settings as the server count grows with the offered
// load held at ~0.8 of aggregate capacity: the per-event cost should stay
// near flat in the server count. Output is pinned identical across
// iterations, so the benchmark doubles as a determinism check at every
// size.
func BenchmarkFarmScaling(b *testing.B) {
	tab := smtTable(b)
	for _, n := range []int{4, 64, 512} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			specs := make([]ServerSpec, n)
			for i := range specs {
				specs[i] = fcfsSpec(tab)
			}
			cfg := Config{Lambda: 1.5 * float64(n), Jobs: 4000, SizeShape: 4, Seed: 1}
			var pin string
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := SimulateSharded(specs, &RoundRobin{}, w4(), cfg, ShardConfig{})
				if err != nil {
					b.Fatal(err)
				}
				fp := fmt.Sprintf("%v/%v/%v/%v",
					res.MeanTurnaround, res.P99Turnaround, res.Throughput, res.Utilisation)
				if pin == "" {
					pin = fp
				} else if fp != pin {
					b.Fatalf("output drifted across iterations:\n%s\nvs\n%s", pin, fp)
				}
			}
		})
	}
}

// BenchmarkShardedWorkerScaling measures how the sharded engine's wall
// time responds to the worker count at a fixed shard geometry — the
// coordination-layer scaling story. The workload is a slice of the
// megafarm acceptance shape (many shards, pd2 dispatch, load ~0.8).
// Output is pinned identical across worker counts, so the benchmark
// doubles as the byte-identity check the ShardConfig contract makes.
func BenchmarkShardedWorkerScaling(b *testing.B) {
	tab := smtTable(b)
	const n = 8192
	specs := make([]ServerSpec, n)
	for i := range specs {
		specs[i] = fcfsSpec(tab)
	}
	cfg := Config{Lambda: 1.5 * float64(n), Jobs: 4000, SizeShape: 4, Seed: 1}
	var pin string
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := NewDispatcher("pd2")
				if err != nil {
					b.Fatal(err)
				}
				res, err := SimulateSharded(specs, d, w4(), cfg, ShardConfig{Shards: 64, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				fp := fmt.Sprintf("%v/%v/%v/%v",
					res.MeanTurnaround, res.P99Turnaround, res.Throughput, res.Utilisation)
				if pin == "" {
					pin = fp
				} else if fp != pin {
					b.Fatalf("output drifted across iterations or worker counts:\n%s\nvs\n%s", pin, fp)
				}
			}
		})
	}
}

// BenchmarkFarmFaultOverhead pins the cost of the fault-enabled hot path:
// the same sharded simulation with faults off and with a busy
// failure/repair process (MTBF>0). The on/off ns/op ratio is the bounded
// factor BENCH_farm.json records — fault injection must stay a
// constant-factor tax on the event loop, not a new asymptotic term.
func BenchmarkFarmFaultOverhead(b *testing.B) {
	tab := smtTable(b)
	const n = 64
	specs := make([]ServerSpec, n)
	for i := range specs {
		specs[i] = fcfsSpec(tab)
	}
	cfg := Config{Lambda: 1.5 * float64(n), Jobs: 4000, SizeShape: 4, Seed: 1}
	for _, bc := range []struct {
		name string
		fc   fault.Config
	}{
		{"faults=off", fault.Config{}},
		{"faults=on", fault.Config{MTBF: 50, MTTR: 2.5, MaxRetries: 5, RetryDelay: 0.5, Checkpoint: fault.Restart}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := cfg
			c.Faults = bc.fc
			var pin string
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := NewDispatcher("pd2")
				if err != nil {
					b.Fatal(err)
				}
				res, err := SimulateSharded(specs, d, w4(), c, ShardConfig{Shards: 8, Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				fp := fmt.Sprintf("%v/%v/%v", res.MeanTurnaround, res.Throughput, res.Availability)
				if pin == "" {
					pin = fp
				} else if fp != pin {
					b.Fatalf("output drifted across iterations:\n%s\nvs\n%s", pin, fp)
				}
			}
		})
	}
}

// BenchmarkFarmSharded measures the engine's shard geometries on one
// workload shape: shards=1/workers=1 isolates the lazy per-server
// advance (O(log n) per event), the NumCPU variant adds slab
// parallelism on top. Output is pinned across
// iterations — and across the two shard configurations, since the sharded
// Result is byte-identical at any Shards/Workers setting.
func BenchmarkFarmSharded(b *testing.B) {
	tab := smtTable(b)
	ncpu := runtime.NumCPU()
	for _, n := range []int{512, 8192} {
		specs := make([]ServerSpec, n)
		for i := range specs {
			specs[i] = fcfsSpec(tab)
		}
		cfg := Config{Lambda: 1.5 * float64(n), Jobs: 4000, SizeShape: 4, Seed: 1}
		var pin string
		// On single-core machines the parallel variant still exercises the
		// multi-shard merge path, just without a second worker.
		wide := ShardConfig{Shards: ncpu, Workers: ncpu}
		if ncpu == 1 {
			wide = ShardConfig{Shards: 8, Workers: 1}
		}
		for _, sc := range []ShardConfig{{Shards: 1, Workers: 1}, wide} {
			b.Run(fmt.Sprintf("servers=%d/shards=%d/workers=%d", n, sc.Shards, sc.Workers), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := SimulateSharded(specs, &RoundRobin{}, w4(), cfg, sc)
					if err != nil {
						b.Fatal(err)
					}
					fp := fmt.Sprintf("%v/%v/%v/%v",
						res.MeanTurnaround, res.P99Turnaround, res.Throughput, res.Utilisation)
					if pin == "" {
						pin = fp
					} else if fp != pin {
						b.Fatalf("output drifted across iterations or shard configs:\n%s\nvs\n%s", pin, fp)
					}
				}
			})
		}
	}
}
