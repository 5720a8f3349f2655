// Package alloctest measures what one more job costs a simulation run,
// for the tests that pin the event loops' steady state allocation-free.
package alloctest

import (
	"runtime"
	"testing"
)

// MarginalPerJob returns the heap allocations and bytes one more job
// costs a run; run(jobs) must perform one complete run of that many
// jobs. Per-run setup — servers, groups, streams, scratch warm-up —
// allocates plenty, so it differences two job counts at otherwise
// identical settings: the setup terms cancel and what remains is the
// marginal cost per additional job across every event it flows through.
func MarginalPerJob(t testing.TB, run func(jobs int)) (allocs, bytes float64) {
	t.Helper()
	const lo, hi = 2000, 8000
	aLo, bLo := perRun(func() { run(lo) })
	aHi, bHi := perRun(func() { run(hi) })
	allocs, bytes = (aHi-aLo)/(hi-lo), (bHi-bLo)/(hi-lo)
	t.Logf("marginal per job: %.3f allocs, %.2f bytes", allocs, bytes)
	return allocs, bytes
}

// perRun runs f once to warm up, then five times at GOMAXPROCS 1, and
// returns the mean heap allocations and bytes per run:
// testing.AllocsPerRun, plus bytes.
func perRun(f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 5
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}
