package main

import (
	"fmt"
	"io"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"time"

	"symbiosched/internal/eventsim"
	"symbiosched/internal/farm"
	"symbiosched/internal/online"
	"symbiosched/internal/sched"
	"symbiosched/internal/stats"
	"symbiosched/internal/workload"
)

// tracer records a traced run from outside the program: coarse spans for
// the set-up phases and every simulation call, and the layer-interface
// wrappers whose per-call counts and summed times cover the hot
// boundaries. A nil *tracer is the untraced state: every method is a
// no-op or hands its argument back unchanged.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // the open spans; a new span's parent is the innermost

	scheds      []*tracedSched
	observers   []*tracedObserver
	learners    []*tracedLearner
	dispatchers []*tracedDispatcher
	construct   boundary // sched.New inside the farm engines' spec factories
}

type span struct {
	name       string
	parent     int           // index into spans, -1 for a root
	start, end time.Duration // since t0
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) begin(name string) int {
	if tr == nil {
		return -1
	}
	parent := -1
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	tr.spans = append(tr.spans, span{name: name, parent: parent, start: time.Since(tr.t0)})
	tr.open = append(tr.open, len(tr.spans)-1)
	return len(tr.spans) - 1
}

func (tr *tracer) end(i int) {
	if tr == nil {
		return
	}
	tr.spans[i].end = time.Since(tr.t0)
	tr.open = tr.open[:len(tr.open)-1]
}

// total sums the durations of the spans named name.
func (tr *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range tr.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return d
}

// boundary counts the calls across one layer interface and their summed
// host time. Every wrapper owns its boundaries, so the sharded engine's
// workers never share one; the tracer sums them once the call returns.
type boundary struct {
	calls int64
	d     time.Duration
}

func (b *boundary) since(start time.Time) {
	b.calls++
	b.d += time.Since(start)
}

func (b *boundary) add(o boundary) {
	b.calls += o.calls
	b.d += o.d
}

// ns is the mean host time per call in nanoseconds.
func (b boundary) ns() float64 { return ratio(float64(b.d.Nanoseconds()), float64(b.calls)) }

// tracedSched times Select. Embedding the scheduler keeps its Name and
// its other methods.
type tracedSched struct {
	sched.Scheduler
	sel boundary
	// learner is the traced learner the scheduler decides over, if any:
	// it files the queries made inside Select apart from the others.
	learner *tracedLearner
}

func (s *tracedSched) Select(jobs []*sched.Job, k int) []int {
	if s.learner != nil {
		s.learner.inSelect = true
	}
	start := time.Now()
	idx := s.Scheduler.Select(jobs, k)
	s.sel.since(start)
	if s.learner != nil {
		s.learner.inSelect = false
	}
	return idx
}

// tracedObserver is a tracedSched for schedulers that track simulated
// time (MAXTP). The event loops type-assert sched.Observer, so a wrapper
// that hid it would send the run down another path.
type tracedObserver struct {
	*tracedSched
	observer sched.Observer
	obs      boundary
}

func (s *tracedObserver) Observe(cos workload.Coschedule, dt float64) {
	start := time.Now()
	s.observer.Observe(cos, dt)
	s.obs.since(start)
}

func (tr *tracer) wrapSched(s sched.Scheduler, l *tracedLearner) sched.Scheduler {
	if tr == nil {
		return s
	}
	ts := &tracedSched{Scheduler: s, learner: l}
	tr.scheds = append(tr.scheds, ts)
	if o, ok := s.(sched.Observer); ok {
		to := &tracedObserver{tracedSched: ts, observer: o}
		tr.observers = append(tr.observers, to)
		return to
	}
	return ts
}

// tracedLearner times the pairwise learner's observations and queries,
// the lazy re-solve included. Embedding *online.Pairwise keeps every
// optional capability the program type-asserts on a rate source, the
// online.EpochBumper repairs use and the MaxJobWIPC pruning bound, so
// the traced run takes the same code paths as the untraced one.
type tracedLearner struct {
	*online.Pairwise
	observe boundary
	query   boundary // queries from outside Select: dispatcher probes
	// querySel holds the queries made inside the scheduler's Select, time
	// that sched.select_s already covers.
	querySel boundary
	inSelect bool
}

func (l *tracedLearner) ObserveInterval(cos workload.Coschedule, dt float64, progress []float64) {
	start := time.Now()
	l.Pairwise.ObserveInterval(cos, dt, progress)
	l.observe.since(start)
}

func (l *tracedLearner) JobWIPC(c workload.Coschedule, b int) float64 {
	start := time.Now()
	w := l.Pairwise.JobWIPC(c, b)
	l.queried(start)
	return w
}

func (l *tracedLearner) InstTP(c workload.Coschedule) float64 {
	start := time.Now()
	tp := l.Pairwise.InstTP(c)
	l.queried(start)
	return tp
}

func (l *tracedLearner) queried(start time.Time) {
	if l.inSelect {
		l.querySel.since(start)
	} else {
		l.query.since(start)
	}
}

// tracedDispatcher times Pick.
type tracedDispatcher struct {
	farm.Dispatcher
	pick boundary
}

func (d *tracedDispatcher) Pick(j *sched.Job, servers []*eventsim.Server, up int, rng *stats.RNG) int {
	start := time.Now()
	i := d.Dispatcher.Pick(j, servers, up, rng)
	d.pick.since(start)
	return i
}

func (tr *tracer) wrapDispatcher(d farm.Dispatcher) farm.Dispatcher {
	if tr == nil {
		return d
	}
	td := &tracedDispatcher{Dispatcher: d}
	tr.dispatchers = append(tr.dispatchers, td)
	return td
}

// wrapSpecs returns specs whose factories time sched.New and wrap the
// schedulers and learners they build. The engines call the factories
// from one goroutine, before any server runs.
func (tr *tracer) wrapSpecs(specs []farm.ServerSpec) []farm.ServerSpec {
	if tr == nil {
		return specs
	}
	out := make([]farm.ServerSpec, len(specs))
	for i, sp := range specs {
		newSched, newEst := sp.Sched, sp.Estimator
		sp.Sched = func(rs online.RateSource) (sched.Scheduler, error) {
			start := time.Now()
			s, err := newSched(rs)
			tr.construct.since(start)
			if err != nil {
				return nil, err
			}
			l, _ := rs.(*tracedLearner)
			return tr.wrapSched(s, l), nil
		}
		if newEst != nil {
			sp.Estimator = func(seed uint64) (online.Estimator, error) {
				e, err := newEst(seed)
				if err != nil {
					return nil, err
				}
				p, ok := e.(*online.Pairwise)
				if !ok {
					return nil, fmt.Errorf("no traced wrapper for the %s learner", e.Name())
				}
				l := &tracedLearner{Pairwise: p}
				tr.learners = append(tr.learners, l)
				return l, nil
			}
		}
		out[i] = sp
	}
	return out
}

// traced runs the per-layer protocol. It sets the workload up once under
// spans, then runs one repetition several ways: plain, twice, the second
// being the base of the overhead ratios; counting, with the program's own
// counters on; traced, with the layer wrappers on; and, on the sharded
// workload, on every CPU with the engine's default worker count. Every
// run gets the same output check as a timed run, and the per-layer
// metrics come from the counts, the wrappers and the spans.
func traced(wl *workloadDef, sz size, seed uint64, log io.Writer) (*report, error) {
	ref, err := loadReference(wl.name, sz.Name, seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	b, err := wl.setup(sz, seed, tr)
	if err != nil {
		return nil, err
	}
	out := &report{}
	var first []simStats
	run := func(in instr) *rep {
		r, err := b.simulate(in)
		if !out.record(r, err, &first, ref, log) {
			return &rep{}
		}
		return r
	}
	// A process's first repetition also pays for growing the heap, so a
	// warm-up run keeps that out of the base of the overhead ratios.
	run(instr{})
	gcBefore := gcCPUSeconds()
	plain := run(instr{})
	gcS := gcCPUSeconds() - gcBefore
	counted := run(instr{count: true})
	tracedRep := run(instr{tr: tr})
	parallel := &rep{}
	if wl.sharded {
		prev := runtime.GOMAXPROCS(runtime.NumCPU())
		parallel = run(instr{})
		runtime.GOMAXPROCS(prev)
	}
	tr.print(log)
	out.Correct = out.Failed == 0
	out.Metrics = layerMetrics(tr, plain, counted, tracedRep, parallel, gcS)
	return out, nil
}

// sums is the hot boundaries of a traced run, summed over its wrappers.
type sums struct {
	sel, obs, learnObs, query, querySel, pick boundary
}

func (tr *tracer) sums() sums {
	var s sums
	for _, w := range tr.scheds {
		s.sel.add(w.sel)
	}
	for _, w := range tr.observers {
		s.obs.add(w.obs)
	}
	for _, l := range tr.learners {
		s.learnObs.add(l.observe)
		s.query.add(l.query)
		s.querySel.add(l.querySel)
	}
	for _, d := range tr.dispatchers {
		s.pick.add(d.pick)
	}
	return s
}

// layerMetrics derives the per-layer metrics. Ratios and per-job figures
// whose layer did not run in the workload read 0.
func layerMetrics(tr *tracer, plain, counted, traced, parallel *rep, gcS float64) map[string]metric {
	count := func(name string) float64 {
		if counted.counts == nil {
			return 0
		}
		v, _ := counted.counts.Get(name, "count")
		return v
	}
	jobs := float64(plain.jobs)
	s := tr.sums()
	sel, obs, learnObs, pick := s.sel, s.obs, s.learnObs, s.pick
	allQueries := s.query
	allQueries.add(s.querySel)

	// Self times: a layer's span minus its children. The engine's children
	// are summed over its worker goroutines, and learner queries made
	// inside Select are already in sel.
	var engineSelf, latencySelf float64
	if d := tr.total("farm.SimulateSharded") + tr.total("farm.Replicate"); d > 0 {
		engineSelf = (d - sel.d - obs.d - learnObs.d - s.query.d - pick.d - tr.construct.d).Seconds()
	}
	if d := tr.total("eventsim.Latency"); d > 0 {
		latencySelf = (d - sel.d - obs.d).Seconds()
	}
	var redispatches, goodputRatio float64
	for _, s := range plain.stats {
		if s.Farm {
			redispatches += float64(s.Redispatches)
			goodputRatio = ratio(s.Goodput, s.Throughput)
		}
	}
	hits, misses := count("sched_memo_hit"), count("sched_memo_miss")
	margHits, margMisses := count("server_marg_hit"), count("server_marg_miss")
	slabs := count("engine_slabs")

	return map[string]metric{
		"perfdb.build_s":               {tr.total("perfdb.BuildWith").Seconds(), "s"},
		"core.calibrate_s":             {tr.total("core.FCFS").Seconds(), "s"},
		"sched.construct_s":            {(tr.total("sched.New") + tr.construct.d).Seconds(), "s"},
		"sched.select_calls":           {float64(sel.calls), "calls"},
		"sched.select_s":               {sel.d.Seconds(), "s"},
		"sched.select_ns":              {sel.ns(), "ns"},
		"sched.memo_hits":              {hits, "count"},
		"sched.memo_misses":            {misses, "count"},
		"sched.memo_hit_ratio":         {ratio(hits, hits+misses), "ratio"},
		"sched.scored_per_select":      {ratio(count("sched_scored"), float64(sel.calls)), "candidates/call"},
		"online.observe_calls":         {float64(learnObs.calls), "calls"},
		"online.observe_s":             {learnObs.d.Seconds(), "s"},
		"online.query_calls":           {float64(allQueries.calls), "calls"},
		"online.query_s":               {allQueries.d.Seconds(), "s"},
		"online.solves_per_job":        {ratio(count("online_solves"), jobs), "solves/job"},
		"farm.pick_calls":              {float64(pick.calls), "calls"},
		"farm.pick_s":                  {pick.d.Seconds(), "s"},
		"farm.pick_ns":                 {pick.ns(), "ns"},
		"farm.engine_self_s":           {engineSelf, "s"},
		"farm.slabs_per_job":           {ratio(slabs, jobs), "slabs/job"},
		"farm.shards_per_slab":         {ratio(count("engine_shard_advances"), slabs), "shards/slab"},
		"farm.events_per_slab":         {ratio(count("engine_merged_completions"), slabs), "events/slab"},
		"farm.worker_speedup":          {ratio(plain.sim.Seconds(), parallel.sim.Seconds()), "ratio"},
		"eventsim.advances_per_job":    {ratio(count("server_advances"), jobs), "calls/job"},
		"eventsim.reschedules_per_job": {ratio(count("server_reschedules"), jobs), "calls/job"},
		"eventsim.marg_hit_ratio":      {ratio(margHits, margHits+margMisses), "ratio"},
		"eventsim.latency_self_s":      {latencySelf, "s"},
		"fault.crashes":                {count("fault_crashes"), "count"},
		"fault.redispatches_per_job":   {ratio(redispatches, jobs), "redispatches/job"},
		"fault.goodput_ratio":          {goodputRatio, "ratio"},
		"runtime.gc_cpu_s":             {gcS, "s"},
		"metrics.hook_overhead":        {ratio(counted.sim.Seconds(), plain.sim.Seconds()), "ratio"},
		"trace.overhead":               {ratio(traced.sim.Seconds(), plain.sim.Seconds()), "ratio"},
	}
}

// ratio is a/b, or 0 when b is 0: a layer that did not run.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// gcCPUSeconds is the runtime's estimate of the CPU time spent in GC so
// far, less the marking done only on otherwise idle processors, which
// takes no time from the simulation.
func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/mark/idle:cpu-seconds"},
	}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 || s[1].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64() - s[1].Value.Float64()
}

// print writes the span tree with each span's self time, then the hot
// boundaries' counts and times.
func (tr *tracer) print(w io.Writer) {
	child := make([]time.Duration, len(tr.spans))
	depth := make([]int, len(tr.spans))
	for i, s := range tr.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
			depth[i] = depth[s.parent] + 1
		}
	}
	fmt.Fprintf(w, "%-36s %12s %12s %12s\n", "span", "start", "duration", "self")
	for i, s := range tr.spans {
		d := s.end - s.start
		fmt.Fprintf(w, "%-36s %12v %12v %12v\n", strings.Repeat("  ", depth[i])+s.name,
			s.start.Round(time.Microsecond), d.Round(time.Microsecond), (d - child[i]).Round(time.Microsecond))
	}
	s := tr.sums()
	fmt.Fprintf(w, "%-36s %12s %12s\n", "boundary (traced run)", "calls", "time")
	for _, b := range []struct {
		name string
		b    boundary
	}{
		{"sched.New in spec factories", tr.construct},
		{"Scheduler.Select", s.sel},
		{"sched.Observer.Observe", s.obs},
		{"learner ObserveInterval", s.learnObs},
		{"learner queries inside Select", s.querySel},
		{"learner queries elsewhere", s.query},
		{"Dispatcher.Pick", s.pick},
	} {
		fmt.Fprintf(w, "%-36s %12d %12v\n", b.name, b.b.calls, b.b.d.Round(time.Microsecond))
	}
}
