package farm

import (
	"fmt"
	"testing"
)

// TestMetricsObserveOnly pins the instrumentation contract: a run with
// Config.Metrics produces a populated snapshot, and every simulation
// result field is bit-identical to the uninstrumented run — the
// collectors observe, they never participate.
func TestMetricsObserveOnly(t *testing.T) {
	tab := smtTable(t)
	specs := []ServerSpec{fcfsSpec(tab), fcfsSpec(tab), fcfsSpec(tab)}
	base := Config{Lambda: 3.5, Jobs: 3000, SizeShape: 4, Seed: 5}
	var fps []string
	for _, met := range []bool{false, true} {
		cfg := base
		cfg.Metrics = met
		d, err := NewDispatcher("li")
		if err != nil {
			t.Fatal(err)
		}
		res, err := SimulateSharded(specs, d, w4(), cfg, ShardConfig{})
		if err != nil {
			t.Fatalf("metrics=%v: %v", met, err)
		}
		if met {
			if res.Metrics == nil || len(res.Metrics.Rows) == 0 {
				t.Fatal("Metrics run produced no snapshot rows")
			}
			if _, ok := res.Metrics.Get("dispatch_picks", "count"); !ok {
				t.Error("snapshot missing dispatch_picks")
			}
		} else if res.Metrics != nil || res.EngineStats != nil {
			t.Fatal("uninstrumented run carries a snapshot")
		}
		res.Metrics, res.EngineStats = nil, nil
		fps = append(fps, shardFingerprint(res))
	}
	if fps[0] != fps[1] {
		t.Errorf("enabling metrics changed the result:\n--- off ---\n%s\n--- on ---\n%s", fps[0], fps[1])
	}
}

// TestMetricsInvariantToShardConfig extends TestShardedInvariantToShardConfig
// to the instrumentation: with Metrics on, the ignored shard count (the
// benchmark passes 64) leaves the metrics CSV and every Result field
// byte-identical to the zero ShardConfig, and EngineStats stays nil.
func TestMetricsInvariantToShardConfig(t *testing.T) {
	for _, fc := range metricsFleets(t) {
		var fps [2]string
		for k, sc := range []ShardConfig{{}, {Shards: 64}} {
			d, err := NewDispatcher("pd2")
			if err != nil {
				t.Fatal(err)
			}
			res, err := SimulateSharded(fc.specs, d, w4(), fc.cfg, sc)
			if err != nil {
				t.Fatalf("%s %+v: %v", fc.name, sc, err)
			}
			if res.Metrics == nil || res.EngineStats != nil {
				t.Fatalf("%s %+v: Metrics present = %v, EngineStats present = %v, want true, false",
					fc.name, sc, res.Metrics != nil, res.EngineStats != nil)
			}
			fps[k] = string(res.Metrics.CSV())
			res.Metrics = nil // a pointer: compared by its CSV
			fps[k] += fmt.Sprintf("%+v", res)
		}
		if fps[0] != fps[1] {
			t.Errorf("%s: metrics CSV or result differs between ShardConfig{} and {Shards: 64}:\n--- {} ---\n%s\n--- {Shards: 64} ---\n%s",
				fc.name, fps[0], fps[1])
		}
	}
}

// metricsFleet is one fleet and configuration the metrics pins run.
type metricsFleet struct {
	name  string
	specs []ServerSpec
	cfg   Config
}

// metricsFleets are the fleets the metrics pins run: an oracle fleet,
// and MAXIT fleets over each learner with faults on, where the crash,
// park and retry paths observe too.
func metricsFleets(t *testing.T) []metricsFleet {
	tab := smtTable(t)
	cfg := Config{Lambda: 6.0, Jobs: 2000, SizeShape: 4, Seed: 17, Metrics: true}
	faulted := cfg
	faulted.Faults = faultCfg()
	return []metricsFleet{
		{"oracle", fleet(5, fcfsSpec(tab)), cfg},
		{"pairwise, faults on", fleet(5, learnedSpec(tab, "pairwise")), faulted},
		{"sampler, faults on", fleet(5, learnedSpec(tab, "sampler")), faulted},
	}
}

// TestMetricsSnapshotMatchesResult pins the shared server instruments
// against the Result, which the engine folds from each server's own
// integrals: every server observes its busy contexts over every interval
// up to the run's end, so the server_busy integral is the sum of
// Utilisation × Elapsed and its weight is N × Elapsed, and
// dispatch_picks counts every placement, the sum of Dispatched.
func TestMetricsSnapshotMatchesResult(t *testing.T) {
	for _, fc := range metricsFleets(t) {
		d, err := NewDispatcher("pd2")
		if err != nil {
			t.Fatal(err)
		}
		res, err := SimulateSharded(fc.specs, d, w4(), fc.cfg, ShardConfig{})
		if err != nil {
			t.Fatalf("%s: %v", fc.name, err)
		}
		busy, dispatched := 0.0, 0
		for _, ps := range res.PerServer {
			busy += ps.Utilisation * res.Elapsed
			dispatched += ps.Dispatched
		}
		integral, _ := res.Metrics.Get("server_busy", "integral")
		weight, _ := res.Metrics.Get("server_busy", "weight")
		picks, _ := res.Metrics.Get("dispatch_picks", "count")
		if e := relErr(integral, busy); !(e <= 1e-9) {
			t.Errorf("%s: server_busy integral %v, want Σ Utilisation × Elapsed = %v (rel err %.3g)", fc.name, integral, busy, e)
		}
		if want := float64(res.Servers) * res.Elapsed; !(relErr(weight, want) <= 1e-9) {
			t.Errorf("%s: server_busy weight %v, want N × Elapsed = %v", fc.name, weight, want)
		}
		if picks != float64(dispatched) {
			t.Errorf("%s: dispatch_picks %v, want Σ Dispatched = %d", fc.name, picks, dispatched)
		}
	}
}

// TestMetricsAllocsIndependentOfFleet pins what instruments cost a large
// fleet: Config.Metrics builds one collector per run, whose server,
// scheduler and estimator instruments every server shares, so the
// allocations it adds to a run stay the same from 8 to 512 servers at
// one job count. A collector per server would add its maps and
// instruments for every server.
func TestMetricsAllocsIndependentOfFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	tab := smtTable(t)
	extra := func(n int) float64 {
		specs := fleet(n, fcfsSpec(tab))
		perRun := func(met bool) float64 {
			return testing.AllocsPerRun(3, func() {
				d, err := NewDispatcher("pd2")
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{Lambda: 1.5 * float64(n), Jobs: 2000, SizeShape: 4, Seed: 3, Metrics: met}
				if _, err := SimulateSharded(specs, d, w4(), cfg, ShardConfig{}); err != nil {
					t.Fatal(err)
				}
			})
		}
		return perRun(true) - perRun(false)
	}
	small, large := extra(8), extra(512)
	t.Logf("allocations Metrics adds to a run: %v at 8 servers, %v at 512", small, large)
	if large > small+maxMetricsAllocSlack {
		t.Errorf("Metrics adds %v allocations to a 512-server run against %v at 8 servers, want at most %d more",
			large, small, maxMetricsAllocSlack)
	}
}

// maxMetricsAllocSlack allows the snapshot's row slice a few more
// growth steps on the larger fleet, whose occupancy histogram may fill
// more buckets.
const maxMetricsAllocSlack = 4
