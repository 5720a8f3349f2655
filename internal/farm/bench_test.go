package farm

import (
	"fmt"
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
				res, err := SimulateSharded(specs, d, w4(), c, ShardConfig{})
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

// BenchmarkFarmSharded measures the engine, one event heap over the
// fleet, on fleets too large for BenchmarkFarmScaling's sizes. At 8192
// servers under round-robin dispatch the per-event cost is the O(log n)
// lazy per-server advance over a fleet that stays close to cache. At
// 65,536 FCFS servers under pd2 dispatch with two jobs per server —
// megafarm's regime — nearly every event lands on a server out of
// cache, so a layout that costs an event more cache lines, or a pointer
// chase, shows there. Output is pinned across iterations.
func BenchmarkFarmSharded(b *testing.B) {
	tab := smtTable(b)
	for _, bc := range []struct {
		name       string
		n, jobs    int
		dispatcher string
	}{
		{"servers=8192", 8192, 4000, "rr"},
		{"servers=65536/pd2", 65536, 2 * 65536, "pd2"},
	} {
		specs := fleet(bc.n, fcfsSpec(tab))
		cfg := Config{Lambda: 1.5 * float64(bc.n), Jobs: bc.jobs, SizeShape: 4, Seed: 1}
		b.Run(bc.name, func(b *testing.B) {
			var pin string
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := NewDispatcher(bc.dispatcher)
				if err != nil {
					b.Fatal(err)
				}
				res, err := SimulateSharded(specs, d, w4(), cfg, ShardConfig{})
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
