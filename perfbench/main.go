// Command perfbench is the repository's benchmark. One invocation runs
// one workload in its own process: it sets the workload up several
// times, then repeats the workload's chain of simulation calls for the
// requested number of seconds, checks every simulated result, and prints
// the end-to-end host-time metrics as one JSON line. With -trace 1 it
// runs the traced protocol instead (trace.go) and prints the per-layer
// metrics. README.md documents the workloads, the metrics and their
// measured spread.
//
//	bash perfbench/run.sh --workload megafarm --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"symbiosched/internal/eventsim"
	"symbiosched/internal/farm"
	"symbiosched/internal/online"
	"symbiosched/internal/sched"
	"symbiosched/internal/stats"
)

// startupS is the CPU time the process used before main began: the
// runtime's start and every package's initialisation, which run on one
// goroutine. setup_s adds it to the fastest set-up, so work moved into
// package initialisation shows too.
var startupS float64

const (
	// setups is how many times a timed run sets its workload up. setup_s
	// takes the fastest, for the reason sim_jobs_per_s takes each call's
	// fastest repetition.
	setups = 5
	// minReps is the fewest repetitions a timed run makes, so every run
	// can check that one seed gives identical statistics.
	minReps = 2
	// defaultSeed is the seed the stored reference values were made at.
	defaultSeed = 1
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line. Attempted and Failed count
// simulation calls; a call that errors or fails its output check fails.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	startupS = cpuSeconds()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// cpuSeconds is the CPU time the process has used so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the stored reference values apply at seed 1")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced protocol and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(stderr, "usage: perfbench --workload <%s> [--seed n] [--seconds n] [--trace 0|1]\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	// The benchmark runs on one processor. On a shared two-CPU host a
	// second one made the simulation calls slower, not faster: fig5 and
	// learnfarm by 20-25%, megafarm, with a second engine worker, by
	// 10-30%. It also tied their host time to the load on the other CPU. The
	// traced run repeats megafarm on every CPU for farm.worker_speedup.
	runtime.GOMAXPROCS(1)
	var out *report
	var err error
	if *trace == 1 {
		out, err = traced(wl, wl.full, *seed, stderr)
	} else {
		out, err = timed(wl, wl.full, *seed, time.Duration(*seconds)*time.Second, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// timed is the measured run: set the workload up `setups` times, then
// repeat its call chain, uninstrumented, until d has passed, checking
// every call, and finally measure the footprint in one more repetition.
func timed(wl *workloadDef, sz size, seed uint64, d time.Duration, log io.Writer) (*report, error) {
	ref, err := loadReference(wl.name, sz.Name, seed)
	if err != nil {
		return nil, err
	}
	var b bench
	setupS := make([]float64, setups)
	for i := range setupS {
		start := time.Now()
		bi, err := wl.setup(sz, seed, nil)
		if err != nil {
			return nil, err
		}
		setupS[i] = time.Since(start).Seconds()
		if i == 0 {
			b = bi
		}
	}
	runtime.GC() // the discarded set-ups' garbage is not the simulation's

	out := &report{}
	var first []simStats
	var jobs float64
	var calls [][]float64 // calls[i]: call i's host seconds, one per repetition
	var allocs, bytes []float64
	var calib []float64 // the calibration kernel's host seconds
	// The kernel's buffer is dead after the loop, so the footprint
	// repetition's collections free it.
	calibBuf := make([]float64, 1<<17)
	begin := time.Now()
	for reps := 0; reps < minReps || time.Since(begin) < d; reps++ {
		r, err := b.simulate(instr{})
		if !out.record(r, err, &first, ref, log) {
			continue
		}
		// Every completed repetition makes the first one's calls.
		jobs = float64(r.jobs)
		if calls == nil {
			calls = make([][]float64, len(r.calls))
		}
		for i, c := range r.calls {
			calls[i] = append(calls[i], c.Seconds())
		}
		allocs = append(allocs, float64(r.allocs)/jobs)
		bytes = append(bytes, float64(r.bytes)/jobs)
		for range calibPerRep {
			calib = append(calib, calibrate(calibBuf))
		}
	}
	// The footprint repetition is untimed and probes about eight times,
	// once a repetition has completed to give its job count. Two
	// collections first: without them its first probes read up to 15 MB
	// more on megafarm, varying from run to run (sync.Pool, for one, keeps
	// objects through one collection).
	probe := &heapProbe{every: max(int64(jobs)/8, 1)}
	if jobs > 0 {
		runtime.GC()
		runtime.GC()
		r, err := b.simulate(instr{probe: probe})
		out.record(r, err, &first, ref, log)
	}

	// Each call's fastest repetition, summed. Host speed on a shared
	// machine swings by up to 1.8x in spells of seconds, and a spell only
	// ever slows a call down, so the minimum is the figure that repeats
	// within a run. Slow spells can outlast a run, so the throughput is
	// also scaled to the reference host speed by the calibration kernel's
	// fastest time in the same run.
	var simS float64
	for _, c := range calls {
		simS += slices.Min(c)
	}
	speed := 1.0 // host speed relative to the reference host
	if len(calib) > 0 {
		speed = calibRef / slices.Min(calib)
	}
	fmt.Fprintf(log, "%s: start-up %.4f s, set-ups %.3f s; %d repetitions of %d calls, %.3f s each at the fastest (%.0f jobs/s); host speed %.3f; %d heap probes\n",
		wl.name, startupS, setupS, len(allocs), len(calls), simS, ratio(jobs, simS), speed, probe.n/probe.every)
	out.Correct = out.Failed == 0
	out.Metrics = map[string]metric{
		"sim_jobs_per_s": {ratio(jobs, simS) / speed, "jobs/s"},
		"setup_s":        {startupS + slices.Min(setupS), "s"},
		"footprint_mb":   {float64(probe.peak) / (1 << 20), "MB"},
		"allocs_per_job": {median(allocs), "allocs/job"},
		"bytes_per_job":  {median(bytes), "B/job"},
	}
	return out, nil
}

// record counts one repetition's calls into the report and checks them
// against the invocation's first repetition and the reference. It
// returns whether the repetition completed; *first is set by the first
// that does.
func (o *report) record(r *rep, err error, first *[]simStats, ref []simStats, log io.Writer) bool {
	o.Attempted += len(r.stats)
	if err != nil {
		o.Attempted++
		o.Failed++
		fmt.Fprintf(log, "error: %v\n", err)
		return false
	}
	failed, why := verify(r.stats, *first, ref)
	o.Failed += failed
	for _, w := range why {
		fmt.Fprintf(log, "check failed: %s\n", w)
	}
	if *first == nil {
		*first = r.stats
	}
	return true
}

const (
	// calibPerRep is how many times a timed run times the calibration
	// kernel after each repetition.
	calibPerRep = 4
	// calibRef is the kernel's fastest time, in seconds, on the reference
	// host of README.md's measurements.
	calibRef = 0.014
)

// calibrate times a fixed kernel that shares no code with the program:
// it fills buf, 1 MiB, with xorshift values and sorts them. Its fastest
// time in a run measures how fast the host ran then.
func calibrate(buf []float64) float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = float64(x % 1000003)
	}
	slices.Sort(buf)
	return time.Since(start).Seconds()
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// heapProbe measures a repetition's peak live heap exactly: every
// `every` calls across a boundary that only the simulation's
// coordinating goroutine crosses, while no other goroutine allocates, it
// forces a GC and reads the heap left. The resident set also holds
// garbage not yet collected, and its peak moved with GC timing by up to
// 15% between runs of one input; the live heap at fixed points of the
// simulation repeats. A nil *heapProbe probes nothing. The probe has
// wrappers of its own because the tracer's keep per-server state, which
// would add to the heap measured.
type heapProbe struct {
	every, n int64
	peak     uint64
}

func (p *heapProbe) tick() {
	p.n++
	if p.n%p.every == 0 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		p.peak = max(p.peak, ms.HeapAlloc)
	}
}

// probedSched ticks the probe at every Select.
type probedSched struct {
	sched.Scheduler
	p *heapProbe
}

func (s probedSched) Select(jobs []*sched.Job, k int) []int {
	s.p.tick()
	return s.Scheduler.Select(jobs, k)
}

// wrapSched wraps s to tick the probe, unless s tracks simulated time
// (sched.Observer, MAXTP), which the wrapper would hide: those calls go
// unprobed.
func (p *heapProbe) wrapSched(s sched.Scheduler) sched.Scheduler {
	if _, ok := s.(sched.Observer); ok || p == nil {
		return s
	}
	return probedSched{Scheduler: s, p: p}
}

// wrapSpecs returns specs whose schedulers tick the probe.
func (p *heapProbe) wrapSpecs(specs []farm.ServerSpec) []farm.ServerSpec {
	if p == nil {
		return specs
	}
	out := slices.Clone(specs)
	for i := range out {
		newSched := out[i].Sched
		out[i].Sched = func(rs online.RateSource) (sched.Scheduler, error) {
			s, err := newSched(rs)
			if err != nil {
				return nil, err
			}
			return p.wrapSched(s), nil
		}
	}
	return out
}

// probedDispatcher ticks the probe at every Pick, which the sharded
// engine calls between slabs, with its workers parked.
type probedDispatcher struct {
	farm.Dispatcher
	p *heapProbe
}

func (d probedDispatcher) Pick(j *sched.Job, servers []*eventsim.Server, up int, rng *stats.RNG) int {
	d.p.tick()
	return d.Dispatcher.Pick(j, servers, up, rng)
}
