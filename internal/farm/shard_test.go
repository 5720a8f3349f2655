package farm

import (
	"fmt"
	"math"
	"testing"

	"symbiosched/internal/perfdb"
	"symbiosched/internal/program"
	"symbiosched/internal/workload"
)

// shardFingerprint renders every field of a Result except the dispatcher
// label, so runs of the same policy under different engines or labels
// can be diffed bit for bit.
func shardFingerprint(r *Result) string {
	c := *r
	c.Dispatcher = ""
	return fmt.Sprintf("%+v", c)
}

func relErr(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// TestShardedMatchesSerialFarm cross-validates the engine against the
// lockstep reference loop: the engine advances each server only at its
// own events, so its float arithmetic partitions intervals differently —
// but both process the same events with the same RNG streams, so every
// statistic must agree to 1e-9 and every count, per-server dispatches
// included, exactly. Oracle FCFS fleets run every dispatcher. Pairwise-
// learned MAXIT fleets run the probing dispatchers and jsq with faults
// off and on: without the engine's settle rule li and pd2 would probe
// learners that have not yet measured the interval since their server's
// last event, and miss by 1e-4 to 1e-2.
func TestShardedMatchesSerialFarm(t *testing.T) {
	tab := smtTable(t)
	for _, disp := range []string{"random", "rr", "jsq", "li", "pd2"} {
		cfg := Config{Lambda: 6.0, Jobs: 4000, SizeShape: 4, Seed: 11}
		crossCheck(t, "oracle/"+disp, fleet(5, fcfsSpec(tab)), disp, w4(), cfg)
	}
	for _, disp := range []string{"li", "pd2", "jsq"} {
		for _, faults := range []bool{false, true} {
			cfg := Config{Lambda: 6.0, Jobs: 3000, SizeShape: 4, Seed: 11}
			if faults {
				cfg.Faults = faultCfg()
			}
			desc := fmt.Sprintf("pairwise/%s/faults=%v", disp, faults)
			crossCheck(t, desc, fleet(5, learnedSpec(tab, "pairwise")), disp, w4(), cfg)
		}
	}
}

// TestShardedInvariantToShardConfig pins that ShardConfig is ignored:
// the shard count a caller still passes (the benchmark passes 64) gives
// the Result of the zero ShardConfig byte for byte.
// TestMetricsInvariantToShardConfig holds the metrics snapshot to the
// same contract. Learned fleets (settled at every placement, with faults
// on) are held to it as well as the oracle fleet.
func TestShardedInvariantToShardConfig(t *testing.T) {
	tab := smtTable(t)
	cfg := Config{Lambda: 9.0, Jobs: 3000, SizeShape: 4, Seed: 13}
	faulted := cfg
	faulted.Faults = faultCfg()
	for _, fc := range []struct {
		name  string
		specs []ServerSpec
		cfg   Config
	}{
		{"oracle", fleet(7, fcfsSpec(tab)), cfg},
		{"pairwise, faults on", fleet(7, learnedSpec(tab, "pairwise")), faulted},
		{"sampler, faults on", fleet(7, learnedSpec(tab, "sampler")), faulted},
	} {
		var fps [2]string
		for k, sc := range []ShardConfig{{}, {Shards: 64}} {
			d, _ := NewDispatcher("pd2")
			res, err := SimulateSharded(fc.specs, d, w4(), fc.cfg, sc)
			if err != nil {
				t.Fatalf("%s %+v: %v", fc.name, sc, err)
			}
			fps[k] = fmt.Sprintf("%+v", res)
		}
		if fps[0] != fps[1] {
			t.Errorf("%s: result differs between ShardConfig{} and {Shards: 64}:\n%s\nvs\n%s",
				fc.name, fps[0], fps[1])
		}
	}
}

// TestShardedHeterogeneousAndScheduled exercises the coordinator off the
// happy path: heterogeneous tables and a bursty cyclic arrival schedule
// with a zero-rate trough.
func TestShardedHeterogeneousAndScheduled(t *testing.T) {
	uni := perfdb.Build(perfdb.UniformModel{K: 4}, program.Suite()[:4])
	specs := []ServerSpec{fcfsSpec(smtTable(t)), fcfsSpec(uni), fcfsSpec(smtTable(t))}
	cfg := Config{
		Lambda:    3.0,
		Schedule:  []Phase{{Duration: 2, Rate: 6.0}, {Duration: 1, Rate: 0}, {Duration: 3, Rate: 2.0}},
		Jobs:      3000,
		SizeShape: 4,
		Seed:      19,
	}
	crossCheck(t, "hetero/li", specs, "li", w4(), cfg)
}

// FuzzShardSlabExchange fuzzes the coordinator's hand-off between the
// arrival stream and the fleet's one event heap with faults off
// (FuzzFaultInterleavings covers it with faults on): random bursty
// schedules, whose bursts queue work that drains through the troughs,
// on oracle or pairwise-learned fleets against the lockstep reference
// loop, plus byte-identity between the zero ShardConfig and a random,
// ignored, shard count.
func FuzzShardSlabExchange(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(4), false)
	f.Add(uint64(7), uint8(3), uint8(16), true)
	f.Add(uint64(42), uint8(5), uint8(1), false)
	f.Add(uint64(9000), uint8(1), uint8(7), true)
	f.Fuzz(func(t *testing.T, seed uint64, shards, burst uint8, learned bool) {
		tab := smtTable(t)
		specs := fleet(4, fcfsSpec(tab))
		if learned {
			specs = fleet(4, learnedSpec(tab, "pairwise"))
		}
		cfg := Config{Lambda: 5.0, Jobs: 600, SizeShape: 4, Seed: seed%1024 + 1}
		if burst > 0 {
			// A cyclic burst/trough schedule: rate 1+burst for half a
			// unit, a trickle after.
			cfg.Schedule = []Phase{
				{Duration: 0.5, Rate: float64(burst) + 1},
				{Duration: 0.25 + float64(seed%7)/4, Rate: 0.5},
			}
		}
		d1, _ := NewDispatcher("li")
		serial, err := simulateSerial(specs, d1, w4(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		d2, _ := NewDispatcher("li")
		engine, err := SimulateSharded(specs, d2, w4(), cfg, ShardConfig{})
		if err != nil {
			t.Fatal(err)
		}
		// Event-order equivalence with the reference loop: same events,
		// same dispatch stream, metrics equal to float tolerance.
		if engine.Completed != serial.Completed || engine.Counted != serial.Counted {
			t.Fatalf("counts differ: engine %d/%d vs reference %d/%d",
				engine.Completed, engine.Counted, serial.Completed, serial.Counted)
		}
		for i := range serial.PerServer {
			if engine.PerServer[i].Dispatched != serial.PerServer[i].Dispatched {
				t.Fatalf("server %d dispatched %d (engine) vs %d (reference)",
					i, engine.PerServer[i].Dispatched, serial.PerServer[i].Dispatched)
			}
		}
		if relErr(engine.MeanTurnaround, serial.MeanTurnaround) > 1e-6 ||
			relErr(engine.Elapsed, serial.Elapsed) > 1e-6 ||
			relErr(engine.Throughput, serial.Throughput) > 1e-6 {
			t.Fatalf("metrics diverge:\nengine    %+v\nreference %+v", engine, serial)
		}
		d3, _ := NewDispatcher("li")
		sharded, err := SimulateSharded(specs, d3, w4(), cfg, ShardConfig{Shards: int(shards) + 1})
		if err != nil {
			t.Fatal(err)
		}
		if a, b := fmt.Sprintf("%+v", engine), fmt.Sprintf("%+v", sharded); a != b {
			t.Fatalf("ShardConfig{} vs {Shards: %d} differ:\n%s\nvs\n%s", int(shards)+1, a, b)
		}
	})
}

// TestShardedWarmupExceedsJobs is TestWarmupExceedsJobs across a fleet:
// with several servers, a warmup longer than the run still counts
// nothing, and every job still completes on some server.
func TestShardedWarmupExceedsJobs(t *testing.T) {
	tab := uniformTable(1)
	specs := []ServerSpec{fcfsSpec(tab), fcfsSpec(tab), fcfsSpec(tab), fcfsSpec(tab)}
	d, _ := NewDispatcher("rr")
	res, err := SimulateSharded(specs, d, workload.Workload{0},
		Config{Lambda: 0.5, Jobs: 50, Warmup: 100, SizeShape: 1}, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counted != 0 || res.MeanTurnaround != 0 {
		t.Errorf("counted %d turnaround %v, want 0, 0", res.Counted, res.MeanTurnaround)
	}
	if res.Completed != 50 {
		t.Errorf("completed %d, want 50", res.Completed)
	}
	total := 0
	for _, ps := range res.PerServer {
		total += ps.Dispatched
	}
	if total != 50 {
		t.Errorf("dispatched %d across servers, want 50", total)
	}
}
