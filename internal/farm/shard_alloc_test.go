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
// pins the recycling); per-slab goroutine spawns or merge-buffer churn
// would read far more (the pre-pool sharded engine measured >6 at
// multi-worker configs).
const maxAllocsPerJob = 0.01

// maxBytesPerJob bounds the marginal bytes of a run keeping samples
// float64 samples per counted job (the turnaround sample, and with
// faults on the retry sample, both pre-sized to the counted jobs): those
// entries, plus 4 bytes of slack for the free list and queues growing
// with the run's peak. An unrecycled job would add its 48 bytes.
func maxBytesPerJob(samples int) float64 { return 8*float64(samples) + 4 }

// TestShardedSlabLoopAllocs pins the zero-steady-state-allocation
// contract of the sharded slab loop.
func TestShardedSlabLoopAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	tab := smtTable(t)
	const n = 64
	specs := make([]ServerSpec, n)
	for i := range specs {
		specs[i] = fcfsSpec(tab)
	}
	allocs, bytes := alloctest.MarginalPerJob(t, func(jobs int) {
		d, err := NewDispatcher("pd2")
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Lambda: 1.5 * n, Jobs: jobs, SizeShape: 4, Seed: 3}
		if _, err := SimulateSharded(specs, d, w4(), cfg, ShardConfig{Shards: 16, Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocsPerJob || bytes > maxBytesPerJob(1) {
		t.Fatalf("slab loop allocates %.3f times and %.2f bytes per job, want <= %v and <= %v",
			allocs, bytes, maxAllocsPerJob, maxBytesPerJob(1))
	}
}

// TestSerialFarmLoopAllocs pins the same contract on the serial engine,
// with faults on so the crash, retry and park paths run too.
func TestSerialFarmLoopAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	tab := smtTable(t)
	const n = 16
	specs := make([]ServerSpec, n)
	for i := range specs {
		specs[i] = fcfsSpec(tab)
	}
	allocs, bytes := alloctest.MarginalPerJob(t, func(jobs int) {
		d, err := NewDispatcher("jsq")
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Lambda: 1.5 * n, Jobs: jobs, SizeShape: 4, Seed: 3, Faults: faultCfg()}
		if _, err := Simulate(specs, d, w4(), cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocsPerJob || bytes > maxBytesPerJob(2) {
		t.Fatalf("serial loop allocates %.3f times and %.2f bytes per job, want <= %v and <= %v",
			allocs, bytes, maxAllocsPerJob, maxBytesPerJob(2))
	}
}
