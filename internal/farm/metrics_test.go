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
	tab := smtTable(t)
	cfg := Config{Lambda: 6.0, Jobs: 2000, SizeShape: 4, Seed: 17, Metrics: true}
	faulted := cfg
	faulted.Faults = faultCfg()
	for _, fc := range []struct {
		name  string
		specs []ServerSpec
		cfg   Config
	}{
		{"oracle", fleet(5, fcfsSpec(tab)), cfg},
		{"pairwise, faults on", fleet(5, learnedSpec(tab, "pairwise")), faulted},
		{"sampler, faults on", fleet(5, learnedSpec(tab, "sampler")), faulted},
	} {
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
