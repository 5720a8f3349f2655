package farm

import (
	"math"
	"testing"

	"symbiosched/internal/stats"
)

func TestScheduleValidation(t *testing.T) {
	tab := uniformTable(2)
	base := Config{Lambda: 1, Jobs: 50}
	bad := []struct {
		name  string
		phase []Phase
	}{
		{"zero duration", []Phase{{Duration: 0, Rate: 1}}},
		{"negative rate", []Phase{{Duration: 1, Rate: -0.5}}},
		{"all zero rates", []Phase{{Duration: 1, Rate: 0}, {Duration: 2, Rate: 0}}},
	}
	for _, tc := range bad {
		cfg := base
		cfg.Schedule = tc.phase
		if _, err := SimulateSharded([]ServerSpec{fcfsSpec(tab)}, &RoundRobin{}, w4()[:1], cfg, ShardConfig{}); err == nil {
			t.Errorf("%s: schedule accepted", tc.name)
		}
	}
}

// TestArrivalStreamBurst pins the time-varying arrival law: with an
// on/off schedule, every arrival lands in an on phase, and the long-run
// rate equals the cycle's mean rate.
func TestArrivalStreamBurst(t *testing.T) {
	cfg := Config{
		Lambda:   1, // nominal; the schedule governs
		Schedule: []Phase{{Duration: 10, Rate: 2}, {Duration: 10, Rate: 0}},
	}
	next := arrivalStream(cfg, stats.NewRNG(11))
	const n = 20000
	var tnow float64
	for i := 0; i < n; i++ {
		tnext := next(tnow)
		if tnext <= tnow {
			t.Fatalf("arrival %d not strictly increasing: %v -> %v", i, tnow, tnext)
		}
		pos := math.Mod(tnext, 20)
		if pos > 10+1e-9 {
			t.Fatalf("arrival %d at t=%v falls in the zero-rate phase (pos %v)", i, tnext, pos)
		}
		tnow = tnext
	}
	// Mean rate over the cycle is (2*10 + 0*10)/20 = 1.
	rate := n / tnow
	if rate < 0.95 || rate > 1.05 {
		t.Errorf("long-run arrival rate %v, want ~1 (schedule mean)", rate)
	}
}

// TestArrivalStreamConstantSchedule checks the restart-at-boundary
// construction against the analytic law: a single-phase schedule is a
// plain Poisson process at that rate, even though draws are discarded at
// every cycle boundary.
func TestArrivalStreamConstantSchedule(t *testing.T) {
	cfg := Config{Lambda: 1, Schedule: []Phase{{Duration: 3, Rate: 1.5}}}
	next := arrivalStream(cfg, stats.NewRNG(5))
	const n = 20000
	var tnow float64
	for i := 0; i < n; i++ {
		tnow = next(tnow)
	}
	rate := n / tnow
	if rate < 1.5*0.95 || rate > 1.5*1.05 {
		t.Errorf("long-run arrival rate %v, want ~1.5", rate)
	}
}

// TestSLOAttainment checks the attainment measurement against the
// turnaround quantiles of the same run: the attainment at the P50 (P95)
// threshold must sit at ~0.50 (~0.95), and extreme thresholds saturate.
func TestSLOAttainment(t *testing.T) {
	tab := uniformTable(2)
	specs := []ServerSpec{fcfsSpec(tab), fcfsSpec(tab)}
	w := w4()[:1]
	base := Config{Lambda: 2.5, Jobs: 4000, Seed: 3, SizeShape: 1}
	ref, err := SimulateSharded(specs, JoinShortestQueue{}, w, base, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.SLOAttainment != 0 {
		t.Errorf("attainment %v reported with no SLO set", ref.SLOAttainment)
	}
	at := func(slo float64) float64 {
		cfg := base
		cfg.SLO = slo
		r, err := SimulateSharded(specs, JoinShortestQueue{}, w, cfg, ShardConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return r.SLOAttainment
	}
	if got := at(ref.P50Turnaround); math.Abs(got-0.50) > 0.02 {
		t.Errorf("attainment at P50 threshold = %v, want ~0.50", got)
	}
	if got := at(ref.P95Turnaround); math.Abs(got-0.95) > 0.02 {
		t.Errorf("attainment at P95 threshold = %v, want ~0.95", got)
	}
	if got := at(1e9); got != 1 {
		t.Errorf("attainment at huge threshold = %v, want 1", got)
	}
	if got := at(1e-12); got > 0.01 {
		t.Errorf("attainment at tiny threshold = %v, want ~0", got)
	}
}

func TestAggregateSLOAttainment(t *testing.T) {
	runs := []Replication{
		{Seed: 1, Result: &Result{Dispatcher: "jsq", SLOAttainment: 0.4}},
		{Seed: 2, Result: &Result{Dispatcher: "jsq", SLOAttainment: 0.6}},
	}
	if got := Aggregate(runs).SLOAttainment; math.Abs(got-0.5) > 1e-15 {
		t.Errorf("aggregate attainment = %v, want 0.5", got)
	}
}
