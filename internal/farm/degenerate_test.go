package farm

import (
	"testing"

	"symbiosched/internal/workload"
)

// TestDegenerateGeometries runs the engine and the reference loop on the
// edge cases of the fleet slab and of job recycling: a single server
// (every crash takes the whole farm down, so arrivals park), K = 1
// machines at high load with faults on (capacity-1 scratch, queues
// growing past their 2K share, crashes evicting more than K victims),
// and a warm-up covering every job with faults on (no counted job, no
// quantile sample). Each must run without error, and the two must agree.
func TestDegenerateGeometries(t *testing.T) {
	smt, k1 := smtTable(t), uniformTable(1)
	cases := []struct {
		desc  string
		specs []ServerSpec
		w     workload.Workload
		cfg   Config
		check func(t *testing.T, r *Result)
	}{
		{
			desc:  "one server",
			specs: fleet(1, fcfsSpec(smt)),
			w:     w4(),
			cfg:   Config{Lambda: 1, Jobs: 2000, SizeShape: 4, Seed: 21, Faults: faultCfg()},
			check: func(t *testing.T, r *Result) {
				if r.Parked == 0 {
					t.Error("no arrival parked: the lone server never went down")
				}
			},
		},
		{
			desc:  "K=1 uniform machines",
			specs: fleet(4, fcfsSpec(k1)),
			w:     workload.Workload{0},
			cfg:   Config{Lambda: 3.6, Jobs: 3000, SizeShape: 1, Seed: 23, Faults: faultCfg()},
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
			check: func(t *testing.T, r *Result) {
				if r.Counted != 0 || r.P99Turnaround != 0 || r.RetryP99 != 0 || r.SLOAttainment != 0 {
					t.Errorf("counted %d, p99 %v, retry p99 %v, SLO attainment %v: want all 0",
						r.Counted, r.P99Turnaround, r.RetryP99, r.SLOAttainment)
				}
			},
		},
	}
	for _, tc := range cases {
		res := crossCheck(t, tc.desc, tc.specs, "jsq", tc.w, tc.cfg)
		if res.Completed+res.Dropped != tc.cfg.Jobs {
			t.Errorf("%s: completed %d + dropped %d, want %d jobs", tc.desc, res.Completed, res.Dropped, tc.cfg.Jobs)
		}
		if tc.check != nil {
			tc.check(t, res)
		}
	}
}
