package farm

import (
	"testing"

	"symbiosched/internal/alloctest"
)

// maxAllocsPerJob bounds the farm loops' marginal allocations. Jobs are
// recycled through the job stream and every server's scratch is carved
// at construction, so the steady state allocates nothing: the margin
// measures about zero. A job object per arrival would read 1 (or 1/256
// from the stream's job chunks alone, which is why the bytes bound below
// pins the recycling); a completion buffer growing with the run would
// show in the bytes bound below.
const maxAllocsPerJob = 0.01

// maxBytesPerJob bounds the marginal bytes of a run keeping samples
// float64 samples per counted job (the turnaround sample, and with
// faults on the retry sample, both pre-sized to the counted jobs): those
// entries, plus 4 bytes of slack for the free list and queues growing
// with the run's peak. An unrecycled job would add its 48 bytes.
func maxBytesPerJob(samples int) float64 { return 8*float64(samples) + 4 }

// TestShardedSlabLoopAllocs pins the zero-steady-state-allocation
// contract of the engine: an oracle fleet under pd2, and a pairwise-learned MAXIT fleet under li with faults on, where the
// settle before every placement, the learner probes and the crash,
// retry and park paths all run. The learned fleet is small because the
// learners and MAXIT's enumerator grow their per-coschedule state
// lazily, as new coschedules first run: that warm-up is per run, not
// per job, but a large fleet is still in it at the longer run length
// and would read it as a margin (any engine, a lockstep loop included).
func TestShardedSlabLoopAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	tab := smtTable(t)
	for _, tc := range []struct {
		name    string
		specs   []ServerSpec
		disp    string
		faults  bool
		samples int // float64 samples kept per counted job
	}{
		{"oracle pd2", fleet(64, fcfsSpec(tab)), "pd2", false, 1},
		{"pairwise li faults", fleet(4, learnedSpec(tab, "pairwise")), "li", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs, bytes := alloctest.MarginalPerJob(t, func(jobs int) {
				d, err := NewDispatcher(tc.disp)
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{Lambda: 1.5 * float64(len(tc.specs)), Jobs: jobs, SizeShape: 4, Seed: 3}
				if tc.faults {
					cfg.Faults = faultCfg()
				}
				if _, err := SimulateSharded(tc.specs, d, w4(), cfg, ShardConfig{}); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > maxAllocsPerJob || bytes > maxBytesPerJob(tc.samples) {
				t.Fatalf("engine allocates %.3f times and %.2f bytes per job, want <= %v and <= %v",
					allocs, bytes, maxAllocsPerJob, maxBytesPerJob(tc.samples))
			}
		})
	}
}
