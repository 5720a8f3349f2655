package farm

import (
	"runtime"
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
		res, err := SimulateSharded(specs, d, w4(), cfg, ShardConfig{Shards: 2, Workers: 2})
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

// TestMetricsInvariantToShardConfig extends the engine's bit-identity
// contract to the instrumentation: every server advances only at its own
// events (learned servers also at every placement, which no knob moves),
// so the merged Metrics snapshot is byte-identical across shard counts,
// worker counts and slab lengths. Execution-shape statistics (slab and
// merge counts) legitimately vary with the knobs, which is exactly why
// they live in the separate EngineStats snapshot.
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
		var ref string
		var refSC ShardConfig
		for _, sc := range []ShardConfig{
			{Shards: 1, Workers: 1},
			{Shards: 1, Workers: runtime.NumCPU()},
			{Shards: 2, Workers: 2, Slab: 0.5},
			{Shards: 5, Workers: runtime.NumCPU(), Slab: 0.05},
		} {
			d, err := NewDispatcher("pd2")
			if err != nil {
				t.Fatal(err)
			}
			res, err := SimulateSharded(fc.specs, d, w4(), fc.cfg, sc)
			if err != nil {
				t.Fatalf("%s %+v: %v", fc.name, sc, err)
			}
			if res.Metrics == nil || res.EngineStats == nil {
				t.Fatalf("%s %+v: missing snapshots", fc.name, sc)
			}
			csv := string(res.Metrics.CSV())
			if ref == "" {
				ref, refSC = csv, sc
				continue
			}
			if csv != ref {
				t.Errorf("%s: metrics CSV differs between %+v and %+v:\n--- ref ---\n%s\n--- got ---\n%s",
					fc.name, refSC, sc, ref, csv)
			}
		}
	}
}
