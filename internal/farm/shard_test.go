package farm

import (
	"fmt"
	"math"
	"runtime"
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
	sc := ShardConfig{Shards: 3, Workers: 2}
	for _, disp := range []string{"random", "rr", "jsq", "li", "pd2"} {
		cfg := Config{Lambda: 6.0, Jobs: 4000, SizeShape: 4, Seed: 11}
		crossCheck(t, "oracle/"+disp, fleet(5, fcfsSpec(tab)), disp, w4(), cfg, sc)
	}
	for _, disp := range []string{"li", "pd2", "jsq"} {
		for _, faults := range []bool{false, true} {
			cfg := Config{Lambda: 6.0, Jobs: 3000, SizeShape: 4, Seed: 11}
			if faults {
				cfg.Faults = faultCfg()
			}
			desc := fmt.Sprintf("pairwise/%s/faults=%v", disp, faults)
			crossCheck(t, desc, fleet(5, learnedSpec(tab, "pairwise")), disp, w4(), cfg, sc)
		}
	}
}

// TestShardedInvariantToShardConfig pins the engine's execution
// contract: output is byte-identical across the full knob space — shard
// counts, worker counts and slab lengths — because every server's float
// arithmetic is a function of its own event times only. Learned fleets
// (settled at every placement, with faults on) are held to the same
// contract as the oracle fleet.
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
		var ref string
		var refSC ShardConfig
		for _, sc := range []ShardConfig{
			{Shards: 1, Workers: 1},
			{Shards: 1, Workers: runtime.NumCPU()},
			{Shards: 3, Workers: 1},
			{Shards: 3, Workers: runtime.NumCPU(), Slab: 0.05},
			{Shards: 7, Workers: 2, Slab: 1.7},
			{Shards: 64, Workers: runtime.NumCPU()}, // clamped to the server count
		} {
			d, _ := NewDispatcher("pd2")
			res, err := SimulateSharded(fc.specs, d, w4(), fc.cfg, sc)
			if err != nil {
				t.Fatalf("%s %+v: %v", fc.name, sc, err)
			}
			fp := fmt.Sprintf("%+v", res)
			if ref == "" {
				ref, refSC = fp, sc
				continue
			}
			if fp != ref {
				t.Errorf("%s: result differs between %+v and %+v:\n%s\nvs\n%s", fc.name, refSC, sc, ref, fp)
			}
		}
	}
}

// TestShardedAutoSlabInvariance pins the adaptive slab mode (Slab == 0)
// against the fixed-slab contract: auto caps come from an event-density
// estimate, so the slab boundaries differ from any fixed setting — but
// boundaries are unobservable, so the Result must stay byte-identical to
// explicit slab lengths, to the uncapped +Inf escape hatch, and across
// worker counts. Negative Slab clamps to auto. The bursty schedule's
// troughs leave queued work draining far from the next arrival, which is
// exactly where the adaptive cap engages.
func TestShardedAutoSlabInvariance(t *testing.T) {
	tab := smtTable(t)
	specs := make([]ServerSpec, 9)
	for i := range specs {
		specs[i] = fcfsSpec(tab)
	}
	cfg := Config{
		Lambda:    4.0,
		Schedule:  []Phase{{Duration: 0.5, Rate: 30.0}, {Duration: 3, Rate: 0.2}},
		Jobs:      4000,
		SizeShape: 4,
		Seed:      23,
	}
	var ref string
	var refSC ShardConfig
	for _, sc := range []ShardConfig{
		{Shards: 5, Workers: 1, Slab: 0},
		{Shards: 5, Workers: runtime.NumCPU(), Slab: 0},
		{Shards: 5, Workers: 1, Slab: math.Inf(1)},
		{Shards: 5, Workers: 1, Slab: 0.25},
		{Shards: 5, Workers: 2, Slab: -3}, // negative clamps to auto
	} {
		d, _ := NewDispatcher("pd2")
		res, err := SimulateSharded(specs, d, w4(), cfg, sc)
		if err != nil {
			t.Fatalf("%+v: %v", sc, err)
		}
		fp := fmt.Sprintf("%+v", res)
		if ref == "" {
			ref, refSC = fp, sc
			continue
		}
		if fp != ref {
			t.Errorf("auto-slab result differs between %+v and %+v:\n%s\nvs\n%s", refSC, sc, ref, fp)
		}
	}
}

// TestShardedDeterministicUnderGOMAXPROCS is the -race stress test: one
// process runs the sharded farm at GOMAXPROCS 1, 2 and NumCPU and diffs
// the full result structs. Under `go test -race` this also proves the
// slab barrier publishes every shard's state safely.
func TestShardedDeterministicUnderGOMAXPROCS(t *testing.T) {
	tab := smtTable(t)
	specs := make([]ServerSpec, 8)
	for i := range specs {
		specs[i] = fcfsSpec(tab)
	}
	cfg := Config{Lambda: 10.0, Jobs: 3000, SizeShape: 4, Seed: 17}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var ref string
	var refP int
	for _, p := range []int{1, 2, runtime.NumCPU()} {
		runtime.GOMAXPROCS(p)
		d, _ := NewDispatcher("li")
		res, err := SimulateSharded(specs, d, w4(), cfg, ShardConfig{Shards: 4, Workers: p})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", p, err)
		}
		fp := fmt.Sprintf("%+v", res)
		if ref == "" {
			ref, refP = fp, p
			continue
		}
		if fp != ref {
			t.Errorf("result differs between GOMAXPROCS=%d and %d:\n%s\nvs\n%s", refP, p, ref, fp)
		}
	}
}

// TestShardedHeterogeneousAndScheduled exercises the coordinator off the
// happy path: heterogeneous tables and a bursty cyclic arrival schedule
// with a zero-rate trough (slab boundaries straddle phase boundaries).
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
	crossCheck(t, "hetero/li", specs, "li", w4(), cfg, ShardConfig{Shards: 3, Workers: 2, Slab: 0.5})
}

// FuzzShardSlabExchange fuzzes the shard-boundary exchange the way the
// heap is fuzzed against a reference scan: random slab lengths, shard
// counts and bursty schedules (arrival bursts straddling slab
// boundaries) against the lockstep reference loop, plus the engine's
// own invariance between worker counts 1 and NumCPU.
func FuzzShardSlabExchange(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint8(2), uint8(4))
	f.Add(uint64(7), uint16(250), uint8(3), uint8(16))
	f.Add(uint64(42), uint16(10), uint8(5), uint8(1))
	f.Add(uint64(9000), uint16(65535), uint8(1), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, slabMilli uint16, shards, burst uint8) {
		tab := smtTable(t)
		specs := []ServerSpec{fcfsSpec(tab), fcfsSpec(tab), fcfsSpec(tab), fcfsSpec(tab)}
		cfg := Config{Lambda: 5.0, Jobs: 600, SizeShape: 4, Seed: seed%1024 + 1}
		if burst > 0 {
			// A cyclic burst/trough schedule whose bursts straddle slab
			// boundaries: rate 1+burst for half a unit, silence after.
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
		sc := ShardConfig{
			Shards:  int(shards%8) + 1,
			Workers: 1,
			Slab:    float64(slabMilli) / 1000,
		}
		d2, _ := NewDispatcher("li")
		sharded, err := SimulateSharded(specs, d2, w4(), cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		// Event-order equivalence with the reference loop: same events,
		// same dispatch stream, metrics equal to float tolerance.
		if sharded.Completed != serial.Completed || sharded.Counted != serial.Counted {
			t.Fatalf("counts differ: sharded %d/%d vs serial %d/%d",
				sharded.Completed, sharded.Counted, serial.Completed, serial.Counted)
		}
		for i := range serial.PerServer {
			if sharded.PerServer[i].Dispatched != serial.PerServer[i].Dispatched {
				t.Fatalf("server %d dispatched %d (sharded) vs %d (serial)",
					i, sharded.PerServer[i].Dispatched, serial.PerServer[i].Dispatched)
			}
		}
		if relErr(sharded.MeanTurnaround, serial.MeanTurnaround) > 1e-6 ||
			relErr(sharded.Elapsed, serial.Elapsed) > 1e-6 ||
			relErr(sharded.Throughput, serial.Throughput) > 1e-6 {
			t.Fatalf("metrics diverge:\nsharded %+v\nserial  %+v", sharded, serial)
		}
		// Bit-identity across worker counts for the same slab geometry.
		d3, _ := NewDispatcher("li")
		wide, err := SimulateSharded(specs, d3, w4(), cfg, ShardConfig{
			Shards: sc.Shards, Workers: runtime.NumCPU(), Slab: sc.Slab,
		})
		if err != nil {
			t.Fatal(err)
		}
		if a, b := fmt.Sprintf("%+v", sharded), fmt.Sprintf("%+v", wide); a != b {
			t.Fatalf("workers 1 vs NumCPU differ:\n%s\nvs\n%s", a, b)
		}
	})
}

// TestShardedWarmupExceedsJobs is TestWarmupExceedsJobs across a
// partitioned fleet: with several servers split over shards advanced by
// more than one worker, a warmup longer than the run still counts
// nothing, and every job still completes on some server.
func TestShardedWarmupExceedsJobs(t *testing.T) {
	tab := uniformTable(1)
	specs := []ServerSpec{fcfsSpec(tab), fcfsSpec(tab), fcfsSpec(tab), fcfsSpec(tab)}
	d, _ := NewDispatcher("rr")
	res, err := SimulateSharded(specs, d, workload.Workload{0},
		Config{Lambda: 0.5, Jobs: 50, Warmup: 100, SizeShape: 1}, ShardConfig{Shards: 3, Workers: 2})
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
