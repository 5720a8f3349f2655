package farm

import (
	"fmt"
	"testing"

	"symbiosched/internal/fault"
	"symbiosched/internal/online"
	"symbiosched/internal/sched"
)

// faultCfg is the shared fault configuration of the integration tests:
// frequent failures (MTBF ~ tens of jobs' worth of time) with quick
// repairs, a modest retry cap and a visible backoff.
func faultCfg() fault.Config {
	return fault.Config{MTBF: 40, MTTR: 3, MaxRetries: 5, RetryDelay: 0.25, Checkpoint: fault.Restart}
}

// TestFaultDisabledReproducesBaseline pins the zero-cost contract: a
// fault config with MTBF 0 — whatever the other fields say — is
// disabled, and the engine reproduces the no-fault run byte for byte.
func TestFaultDisabledReproducesBaseline(t *testing.T) {
	tab := smtTable(t)
	specs := []ServerSpec{fcfsSpec(tab), fcfsSpec(tab), fcfsSpec(tab)}
	cfg := Config{Lambda: 4.0, Jobs: 2000, SizeShape: 4, Seed: 5}
	off := cfg
	off.Faults = fault.Config{MTTR: 9, MaxRetries: 2, RetryDelay: 1, Checkpoint: fault.Resume}
	for _, disp := range []string{"li", "pd2", "rr"} {
		d1, _ := NewDispatcher(disp)
		base, err := SimulateSharded(specs, d1, w4(), cfg, ShardConfig{})
		if err != nil {
			t.Fatal(err)
		}
		d2, _ := NewDispatcher(disp)
		disabled, err := SimulateSharded(specs, d2, w4(), off, ShardConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if a, b := fmt.Sprintf("%+v", base), fmt.Sprintf("%+v", disabled); a != b {
			t.Errorf("%s: MTBF=0 run differs from baseline:\n%s\nvs\n%s", disp, a, b)
		}
		if base.Availability != 1 || base.Goodput <= 0 {
			t.Errorf("%s: fault-free availability %v goodput %v, want 1 and > 0",
				disp, base.Availability, base.Goodput)
		}
	}
}

// TestFaultSerialMatchesSharded cross-validates the engine against the
// reference loop under injection: same fault trajectory (CRN per server
// index), same policy, so the integer fault accounting must agree
// exactly and the float metrics to 1e-9 — for every dispatcher and both
// checkpoint policies.
func TestFaultSerialMatchesSharded(t *testing.T) {
	tab := smtTable(t)
	for _, disp := range []string{"random", "rr", "jsq", "li", "pd2"} {
		for _, cp := range fault.Policies {
			cfg := Config{Lambda: 6.0, Jobs: 3000, SizeShape: 4, Seed: 11}
			cfg.Faults = faultCfg()
			cfg.Faults.Checkpoint = cp
			desc := fmt.Sprintf("%s/%s", disp, cp)
			res := crossCheck(t, desc, fleet(5, fcfsSpec(tab)), disp, w4(), cfg)
			if res.Redispatches == 0 {
				t.Errorf("%s: no redispatches — faults not exercised", desc)
			}
		}
	}
}

// TestFaultShardConfigInvariance pins that a faulted oracle run is a
// function of its inputs alone: the fault trajectory depends on (Seed,
// server index) only and ShardConfig is ignored, so repeated runs at any
// shard count give the same Result bit for bit.
func TestFaultShardConfigInvariance(t *testing.T) {
	tab := smtTable(t)
	specs := make([]ServerSpec, 7)
	for i := range specs {
		specs[i] = fcfsSpec(tab)
	}
	cfg := Config{Lambda: 9.0, Jobs: 2500, SizeShape: 4, Seed: 13}
	cfg.Faults = faultCfg()
	var ref string
	var refSC ShardConfig
	for _, sc := range []ShardConfig{{}, {Shards: 64}} {
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
			t.Errorf("faulted result differs between %+v and %+v:\n%s\nvs\n%s", refSC, sc, ref, fp)
		}
	}
}

// TestFaultAccountingInvariants checks the conservation laws of the
// fault bookkeeping on a long faulted run: every arrival either
// completes or is dropped, availability sits strictly inside (0, 1)
// under injection, goodput never exceeds throughput, and some work is
// wasted under the restart policy.
func TestFaultAccountingInvariants(t *testing.T) {
	tab := smtTable(t)
	specs := []ServerSpec{fcfsSpec(tab), fcfsSpec(tab), fcfsSpec(tab)}
	cfg := Config{Lambda: 4.0, Jobs: 4000, SizeShape: 4, Seed: 29}
	cfg.Faults = faultCfg()
	d, _ := NewDispatcher("li")
	res, err := SimulateSharded(specs, d, w4(), cfg, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.Dropped != cfg.Jobs {
		t.Errorf("completed %d + dropped %d != jobs %d", res.Completed, res.Dropped, cfg.Jobs)
	}
	if res.Availability <= 0 || res.Availability >= 1 {
		t.Errorf("availability %v, want strictly inside (0, 1) under injection", res.Availability)
	}
	if res.Goodput <= 0 || res.Goodput > res.Throughput+1e-12 {
		t.Errorf("goodput %v vs throughput %v: want 0 < goodput <= throughput", res.Goodput, res.Throughput)
	}
	if res.WastedWork <= 0 {
		t.Errorf("wasted work %v, want > 0 under the restart policy", res.WastedWork)
	}
	if res.RetryP99 < res.RetryP50 {
		t.Errorf("retry quantiles inverted: p50 %v > p99 %v", res.RetryP50, res.RetryP99)
	}
}

// TestFaultResumeWastesLessThanRestart pins the checkpoint policies
// against each other on a common fault trajectory (CRN: same seed, same
// failure/repair times): resume keeps completed work across a crash, so
// it can never waste more than restart.
func TestFaultResumeWastesLessThanRestart(t *testing.T) {
	tab := smtTable(t)
	specs := []ServerSpec{fcfsSpec(tab), fcfsSpec(tab), fcfsSpec(tab)}
	run := func(cp fault.Policy) *Result {
		cfg := Config{Lambda: 4.0, Jobs: 3000, SizeShape: 4, Seed: 17}
		cfg.Faults = faultCfg()
		cfg.Faults.Checkpoint = cp
		d, _ := NewDispatcher("li")
		res, err := SimulateSharded(specs, d, w4(), cfg, ShardConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	restart, resume := run(fault.Restart), run(fault.Resume)
	if restart.Redispatches == 0 {
		t.Fatal("no redispatches — faults not exercised")
	}
	if resume.WastedWork >= restart.WastedWork {
		t.Errorf("resume wasted %v >= restart wasted %v on the same fault trajectory",
			resume.WastedWork, restart.WastedWork)
	}
}

// TestFaultAllDownParksArrivals drives a one-server farm through
// outages: every arrival during an outage must park (never a Pick over
// zero up servers) and drain at the repair, with nothing lost, exactly
// as the reference loop parks and drains.
func TestFaultAllDownParksArrivals(t *testing.T) {
	tab := uniformTable(1)
	cfg := Config{Lambda: 2.0, Jobs: 1500, SizeShape: 1, Seed: 3}
	cfg.Faults = fault.Config{MTBF: 10, MTTR: 4, MaxRetries: 8, RetryDelay: 0.1, Checkpoint: fault.Resume}
	res := crossCheck(t, "one server", []ServerSpec{fcfsSpec(tab)}, "rr", w4()[:1], cfg)
	if res.Parked == 0 {
		t.Error("one-server farm with outages parked nothing")
	}
	if res.Completed+res.Dropped != cfg.Jobs {
		t.Errorf("completed %d + dropped %d != jobs %d", res.Completed, res.Dropped, cfg.Jobs)
	}
}

// TestFaultRetryCapDrops pins the drop path: with MaxRetries 0 every
// crash victim is abandoned immediately — no redispatch ever happens,
// and the run still terminates with completed + dropped == Jobs.
func TestFaultRetryCapDrops(t *testing.T) {
	tab := smtTable(t)
	specs := []ServerSpec{fcfsSpec(tab), fcfsSpec(tab)}
	cfg := Config{Lambda: 3.0, Jobs: 2000, SizeShape: 4, Seed: 23}
	cfg.Faults = fault.Config{MTBF: 20, MTTR: 2, MaxRetries: 0, RetryDelay: 0.5}
	d, _ := NewDispatcher("jsq")
	res, err := SimulateSharded(specs, d, w4(), cfg, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Error("MaxRetries=0 run dropped nothing — faults not exercised")
	}
	if res.Redispatches != 0 {
		t.Errorf("MaxRetries=0 run redispatched %d jobs, want 0", res.Redispatches)
	}
	if res.Completed+res.Dropped != cfg.Jobs {
		t.Errorf("completed %d + dropped %d != jobs %d", res.Completed, res.Dropped, cfg.Jobs)
	}
	if res.RetryP50 != 0 || res.RetryP99 != 0 {
		t.Errorf("retry quantiles %v/%v, want 0/0: every retried job was dropped, never counted",
			res.RetryP50, res.RetryP99)
	}
}

// TestFaultInvalidConfigRejected checks that the engine rejects a bad
// fault config up front.
func TestFaultInvalidConfigRejected(t *testing.T) {
	tab := uniformTable(1)
	cfg := Config{Lambda: 1.0, Jobs: 10, SizeShape: 1}
	cfg.Faults = fault.Config{MTBF: 5} // MTTR missing
	d, _ := NewDispatcher("rr")
	if _, err := SimulateSharded([]ServerSpec{fcfsSpec(tab)}, d, w4()[:1], cfg, ShardConfig{}); err == nil {
		t.Error("engine accepted MTBF > 0 with MTTR 0")
	}
}

// TestFaultEpochBumpOnRepair pins the stale-decision guard end to end:
// a repaired learning server's rate source must advance its epoch even
// though no observation arrived during the outage, so MAXIT's per-epoch
// memo re-derives its next decision. The farm run asserts the plumbing
// (learner servers complete a faulted run deterministically); the
// direct check pins the epoch arithmetic.
func TestFaultEpochBumpOnRepair(t *testing.T) {
	s := online.NewSampler(2, online.SamplerConfig{})
	if e0, e1 := s.Epoch(), func() uint64 { s.BumpEpoch(); return s.Epoch() }(); e1 != e0+1 {
		t.Errorf("sampler epoch %d -> %d after bump, want +1", e0, e1)
	}
	p := online.NewPairwise(2, 4, online.PairwiseConfig{})
	if e0, e1 := p.Epoch(), func() uint64 { p.BumpEpoch(); return p.Epoch() }(); e1 != e0+1 {
		t.Errorf("pairwise epoch %d -> %d after bump, want +1", e0, e1)
	}

	tab := smtTable(t)
	mk := func(rs online.RateSource) (sched.Scheduler, error) { return sched.New("MAXIT", rs, w4()) }
	est := func(k int) func(seed uint64) (online.Estimator, error) {
		return func(seed uint64) (online.Estimator, error) {
			return online.NewSampler(k, online.SamplerConfig{Seed: seed}), nil
		}
	}
	specs := []ServerSpec{
		{Table: tab, Sched: mk, Estimator: est(tab.K())},
		{Table: tab, Sched: mk, Estimator: est(tab.K())},
	}
	cfg := Config{Lambda: 2.5, Jobs: 1200, SizeShape: 4, Seed: 31}
	cfg.Faults = faultCfg()
	d1, _ := NewDispatcher("li")
	a, err := SimulateSharded(specs, d1, w4(), cfg, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := NewDispatcher("li")
	b, err := SimulateSharded(specs, d2, w4(), cfg, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if x, y := fmt.Sprintf("%+v", a), fmt.Sprintf("%+v", b); x != y {
		t.Errorf("faulted learner run not reproducible:\n%s\nvs\n%s", x, y)
	}
	if a.Redispatches == 0 {
		t.Error("learner run saw no redispatches — faults not exercised")
	}
}

// FuzzFaultInterleavings fuzzes failure/repair interleavings against
// the reference loop: random fault rates, checkpoint policies, bursty
// arrival schedules (crashes landing inside bursts, repairs draining
// into troughs) and oracle or pairwise-learned fleets, asserting the
// exact integer accounting, per-server dispatches included, and tight
// float agreement.
func FuzzFaultInterleavings(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(4), uint8(0), false, false)
	f.Add(uint64(7), uint8(5), uint8(2), uint8(0), true, true)
	f.Add(uint64(42), uint8(60), uint8(10), uint8(0), false, true)
	f.Add(uint64(9000), uint8(1), uint8(1), uint8(0), true, false)
	// The same fault processes under burst/trough arrival schedules.
	f.Add(uint64(1), uint8(20), uint8(4), uint8(4), false, false)
	f.Add(uint64(7), uint8(5), uint8(2), uint8(16), true, true)
	f.Add(uint64(42), uint8(60), uint8(10), uint8(1), false, true)
	f.Add(uint64(9000), uint8(1), uint8(1), uint8(7), true, false)
	f.Fuzz(func(t *testing.T, seed uint64, mtbfQ, mttrQ, burst uint8, resume, learned bool) {
		tab := smtTable(t)
		specs := fleet(4, fcfsSpec(tab))
		if learned {
			specs = fleet(4, learnedSpec(tab, "pairwise"))
		}
		cfg := Config{Lambda: 5.0, Jobs: 500, SizeShape: 4, Seed: seed%1024 + 1}
		if burst > 0 {
			// A cyclic burst/trough schedule: rate 1+burst for half a
			// unit, a trickle after.
			cfg.Schedule = []Phase{
				{Duration: 0.5, Rate: float64(burst) + 1},
				{Duration: 0.25 + float64(seed%7)/4, Rate: 0.5},
			}
		}
		cfg.Faults = fault.Config{
			MTBF:       float64(mtbfQ%100) + 0.5,
			MTTR:       float64(mttrQ%20)/2 + 0.25,
			MaxRetries: int(seed % 7),
			RetryDelay: float64(seed%5) / 8,
		}
		if resume {
			cfg.Faults.Checkpoint = fault.Resume
		}
		d1, _ := NewDispatcher("li")
		serial, err := simulateSerial(specs, d1, w4(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Completed+serial.Dropped != cfg.Jobs {
			t.Fatalf("reference: completed %d + dropped %d != jobs %d", serial.Completed, serial.Dropped, cfg.Jobs)
		}
		d2, _ := NewDispatcher("li")
		engine, err := SimulateSharded(specs, d2, w4(), cfg, ShardConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if engine.Completed != serial.Completed || engine.Counted != serial.Counted ||
			engine.Redispatches != serial.Redispatches || engine.Dropped != serial.Dropped ||
			engine.Parked != serial.Parked {
			t.Fatalf("fault accounting diverges:\nengine    %+v\nreference %+v", engine, serial)
		}
		for i := range serial.PerServer {
			if engine.PerServer[i].Dispatched != serial.PerServer[i].Dispatched {
				t.Fatalf("server %d dispatched %d (engine) vs %d (reference)",
					i, engine.PerServer[i].Dispatched, serial.PerServer[i].Dispatched)
			}
		}
		if relErr(engine.MeanTurnaround, serial.MeanTurnaround) > 1e-6 ||
			relErr(engine.Availability, serial.Availability) > 1e-6 ||
			relErr(engine.Goodput, serial.Goodput) > 1e-6 ||
			relErr(engine.WastedWork, serial.WastedWork) > 1e-6 ||
			relErr(engine.Elapsed, serial.Elapsed) > 1e-6 ||
			relErr(engine.Throughput, serial.Throughput) > 1e-6 {
			t.Fatalf("fault metrics diverge:\nengine    %+v\nreference %+v", engine, serial)
		}
	})
}
