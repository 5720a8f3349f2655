package farm

import (
	"testing"

	"symbiosched/internal/workload"
)

// agreeWithin checks that the serial and sharded engines agree on every
// count exactly and on every statistic to TestShardedMatchesSerialFarm's
// 1e-9.
func agreeWithin(t *testing.T, desc string, serial, sharded *Result) {
	t.Helper()
	ints := []struct {
		name      string
		got, want int
	}{
		{"completed", sharded.Completed, serial.Completed},
		{"counted", sharded.Counted, serial.Counted},
		{"redispatches", sharded.Redispatches, serial.Redispatches},
		{"dropped", sharded.Dropped, serial.Dropped},
		{"parked", sharded.Parked, serial.Parked},
	}
	for _, c := range ints {
		if c.got != c.want {
			t.Errorf("%s: %s differs: sharded %d vs serial %d", desc, c.name, c.got, c.want)
		}
	}
	floats := []struct {
		name      string
		got, want float64
	}{
		{"mean turnaround", sharded.MeanTurnaround, serial.MeanTurnaround},
		{"p50", sharded.P50Turnaround, serial.P50Turnaround},
		{"p95", sharded.P95Turnaround, serial.P95Turnaround},
		{"p99", sharded.P99Turnaround, serial.P99Turnaround},
		{"utilisation", sharded.Utilisation, serial.Utilisation},
		{"empty fraction", sharded.EmptyFraction, serial.EmptyFraction},
		{"throughput", sharded.Throughput, serial.Throughput},
		{"elapsed", sharded.Elapsed, serial.Elapsed},
		{"availability", sharded.Availability, serial.Availability},
		{"goodput", sharded.Goodput, serial.Goodput},
		{"wasted work", sharded.WastedWork, serial.WastedWork},
		{"retry p50", sharded.RetryP50, serial.RetryP50},
		{"retry p99", sharded.RetryP99, serial.RetryP99},
	}
	for _, c := range floats {
		if relErr(c.got, c.want) > 1e-9 {
			t.Errorf("%s: %s diverges: sharded %v vs serial %v", desc, c.name, c.got, c.want)
		}
	}
	for i := range serial.PerServer {
		if sharded.PerServer[i].Dispatched != serial.PerServer[i].Dispatched {
			t.Errorf("%s: server %d dispatched %d (sharded) vs %d (serial)",
				desc, i, sharded.PerServer[i].Dispatched, serial.PerServer[i].Dispatched)
		}
	}
}

// TestDegenerateGeometries runs both engines on the edge cases of the
// fleet slab and of job recycling: a single server in a single shard
// (every crash takes the whole farm down, so arrivals park), more shards
// than servers (the shard count clamps), K = 1 machines at high load
// with faults on (capacity-1 scratch, queues growing past their 2K
// share, crashes evicting more than K victims), and a warm-up covering
// every job with faults on (no counted job, no quantile sample). Each
// must run without error, and the engines must agree.
func TestDegenerateGeometries(t *testing.T) {
	smt, k1 := smtTable(t), uniformTable(1)
	fleet := func(n int, spec ServerSpec) []ServerSpec {
		specs := make([]ServerSpec, n)
		for i := range specs {
			specs[i] = spec
		}
		return specs
	}
	cases := []struct {
		desc  string
		specs []ServerSpec
		w     workload.Workload
		cfg   Config
		sc    ShardConfig
		check func(t *testing.T, r *Result)
	}{
		{
			desc:  "one server, one shard",
			specs: fleet(1, fcfsSpec(smt)),
			w:     w4(),
			cfg:   Config{Lambda: 1, Jobs: 2000, SizeShape: 4, Seed: 21, Faults: faultCfg()},
			sc:    ShardConfig{Shards: 1, Workers: 1},
			check: func(t *testing.T, r *Result) {
				if r.Parked == 0 {
					t.Error("no arrival parked: the lone server never went down")
				}
			},
		},
		{
			desc:  "more shards than servers",
			specs: fleet(3, fcfsSpec(smt)),
			w:     w4(),
			cfg:   Config{Lambda: 3, Jobs: 2000, SizeShape: 4, Seed: 22, Faults: faultCfg()},
			sc:    ShardConfig{Shards: 8, Workers: 2},
		},
		{
			desc:  "K=1 uniform machines",
			specs: fleet(4, fcfsSpec(k1)),
			w:     workload.Workload{0},
			cfg:   Config{Lambda: 3.6, Jobs: 3000, SizeShape: 1, Seed: 23, Faults: faultCfg()},
			sc:    ShardConfig{Shards: 2, Workers: 2},
			check: func(t *testing.T, r *Result) {
				if r.Redispatches == 0 {
					t.Error("no crash victim was re-dispatched")
				}
			},
		},
		{
			desc:  "warm-up covers every job, faults on",
			specs: fleet(4, fcfsSpec(smt)),
			w:     w4(),
			cfg:   Config{Lambda: 4, Jobs: 500, Warmup: 500, SizeShape: 4, Seed: 24, SLO: 2, Faults: faultCfg()},
			sc:    ShardConfig{Shards: 3, Workers: 1},
			check: func(t *testing.T, r *Result) {
				if r.Counted != 0 || r.P99Turnaround != 0 || r.RetryP99 != 0 || r.SLOAttainment != 0 {
					t.Errorf("counted %d, p99 %v, retry p99 %v, SLO attainment %v: want all 0",
						r.Counted, r.P99Turnaround, r.RetryP99, r.SLOAttainment)
				}
			},
		},
	}
	for _, tc := range cases {
		d1, _ := NewDispatcher("jsq")
		serial, err := Simulate(tc.specs, d1, tc.w, tc.cfg)
		if err != nil {
			t.Fatalf("%s: serial: %v", tc.desc, err)
		}
		d2, _ := NewDispatcher("jsq")
		sharded, err := SimulateSharded(tc.specs, d2, tc.w, tc.cfg, tc.sc)
		if err != nil {
			t.Fatalf("%s: sharded: %v", tc.desc, err)
		}
		if serial.Completed+serial.Dropped != tc.cfg.Jobs {
			t.Errorf("%s: completed %d + dropped %d, want %d jobs", tc.desc, serial.Completed, serial.Dropped, tc.cfg.Jobs)
		}
		agreeWithin(t, tc.desc, serial, sharded)
		if tc.check != nil {
			tc.check(t, serial)
		}
	}
}
