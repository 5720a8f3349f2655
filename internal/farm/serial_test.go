package farm

import (
	"fmt"
	"math"
	"testing"

	"symbiosched/internal/eventsim"
	"symbiosched/internal/numeric"
	"symbiosched/internal/online"
	"symbiosched/internal/sched"
	"symbiosched/internal/stats"
	"symbiosched/internal/workload"
)

// simulateSerial is the lockstep reference loop the engine is
// cross-checked against: every event — the globally earliest completion
// or the next meta event — advances every server by the same dt on one
// shared clock, in server index order. It costs O(N) per event and lives
// here, not in production, because SimulateSharded computes the same
// trajectory from lazy per-server clocks; the two agree to float
// rounding. Over a farm of one it reproduces eventsim.Latency bit for
// bit. It takes the same inputs and seeds the same three streams as the
// engine, and ignores Config.Metrics.
func simulateSerial(specs []ServerSpec, d Dispatcher, w workload.Workload, cfg Config) (*Result, error) {
	if err := validate(specs, w, cfg); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	_, servers, _, totalContexts, err := buildServers(specs, w, cfg)
	if err != nil {
		return nil, err
	}

	arng := stats.NewRNG(cfg.Seed)
	drng := stats.NewRNG(cfg.Seed ^ 0xd1b54a32d192ed03)
	jobs := eventsim.NewJobStream(w, eventsim.LatencyConfig{
		Lambda:    cfg.Lambda,
		Jobs:      cfg.Jobs,
		Warmup:    cfg.Warmup,
		JobSize:   cfg.JobSize,
		SizeShape: cfg.SizeShape,
		Seed:      cfg.Seed,
	})

	nextArrivalAfter := arrivalStream(cfg, arng)
	var now float64
	nextArrival := nextArrivalAfter(0)
	arrivalsLeft := cfg.Jobs

	var turnaround, goodput numeric.KahanSum
	turnarounds := make([]float64, 0, max(cfg.Jobs-cfg.Warmup, 0))
	completed, counted := 0, 0
	fr := newFaultRun(cfg, len(servers), jobs)

	// The heap is keyed by relative time-to-completion deltas; its
	// minimum is the exact minimum of the servers' cached values.
	h := eventsim.NewTimeHeap(len(servers))

	dispatch := func(j *sched.Job) error {
		up := len(servers)
		if fr != nil {
			j.ID = fr.seq
			fr.seq++
			if j.Retries > 0 {
				fr.redispatches++
			}
			up = fr.up
		}
		ti := d.Pick(j, servers, up, drng)
		if ti < 0 || ti >= len(servers) {
			return fmt.Errorf("farm: dispatcher %s picked server %d of %d", d.Name(), ti, len(servers))
		}
		servers[ti].Add(j)
		if err := servers[ti].Reschedule(); err != nil {
			return err
		}
		h.Update(ti, servers[ti].TimeToNextCompletion())
		return nil
	}

	for completed+fr.droppedJobs() < cfg.Jobs {
		// Globally earliest completion across servers, or the earliest
		// meta event — fault transition, retry re-arrival, fresh arrival,
		// ties in that priority order — whichever first.
		dt := h.Min()
		ev := evNone
		var evT float64
		consider := func(t float64, kind int) {
			if ev == evNone {
				// First candidate against the completion horizon: with
				// faults disabled this is the single-server loop's
				// completion-vs-arrival race, bit for bit.
				if now+dt >= t {
					dt, ev, evT = t-now, kind, t
				}
			} else if t < evT {
				// Later candidates compare absolute times, strict <: an
				// equal-time later kind loses to the earlier-declared kind.
				dt, ev, evT = t-now, kind, t
			}
		}
		if fr != nil {
			consider(fr.inj.Next(), evFault)
			consider(fr.rq.Next(), evRetry)
		}
		if arrivalsLeft > 0 {
			consider(nextArrival, evArrival)
		}
		if math.IsInf(dt, 1) {
			break // drained: nothing running, no events left
		}
		if dt < 0 {
			dt = 0
		}
		now += dt
		for i, sv := range servers {
			done := sv.Advance(dt, nil)
			for _, j := range done {
				completed++
				goodput.Add(j.Size)
				if completed > cfg.Warmup {
					tr := now - j.Arrival
					turnaround.Add(tr)
					turnarounds = append(turnarounds, tr)
					counted++
					if fr != nil {
						fr.retries = append(fr.retries, float64(j.Retries))
					}
				}
				jobs.Recycle(j)
			}
			if len(done) > 0 {
				if err := sv.Reschedule(); err != nil {
					return nil, err
				}
			}
			h.Update(i, sv.TimeToNextCompletion())
		}
		if fr != nil && completed+fr.dropped >= cfg.Jobs {
			break // the sweep finished the run at the meta event's instant
		}
		switch ev {
		case evFault:
			fe := fr.inj.Pop()
			sv := servers[fe.Server]
			if fe.Down {
				victims := sv.Fail(nil)
				h.Update(fe.Server, sv.TimeToNextCompletion())
				// Backoffs stamp off the injector's absolute event time, as
				// the engine's do, so retry due times match it exactly.
				fr.crash(fe.T, victims, nil)
			} else {
				sv.Repair()
				fr.up++
				if b, ok := sv.Rates().(online.EpochBumper); ok {
					b.BumpEpoch()
				}
				for len(fr.parked) > 0 {
					j := fr.parked[0]
					copy(fr.parked, fr.parked[1:])
					fr.parked[len(fr.parked)-1] = nil
					fr.parked = fr.parked[:len(fr.parked)-1]
					if err := dispatch(j); err != nil {
						return nil, err
					}
				}
			}
		case evRetry:
			j := fr.rq.Pop()
			if fr.up == 0 {
				fr.park(j, nil)
			} else if err := dispatch(j); err != nil {
				return nil, err
			}
		case evArrival:
			j := jobs.Next(now)
			if fr != nil && fr.up == 0 {
				fr.park(j, nil)
			} else if err := dispatch(j); err != nil {
				return nil, err
			}
			arrivalsLeft--
			if arrivalsLeft > 0 {
				nextArrival = nextArrivalAfter(now)
			}
		}
	}
	if now <= 0 {
		return nil, fmt.Errorf("farm: experiment completed no work")
	}
	return assembleResult(d, servers, totalContexts, cfg, now, completed, counted, turnaround, goodput, turnarounds, fr, nil), nil
}

// crossCheck runs dispatcher disp over specs on the reference loop and
// on the engine, requires agreeWithin, and returns the engine's result.
func crossCheck(t *testing.T, desc string, specs []ServerSpec, disp string, w workload.Workload, cfg Config) *Result {
	t.Helper()
	d1, err := NewDispatcher(disp)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := simulateSerial(specs, d1, w, cfg)
	if err != nil {
		t.Fatalf("%s: reference loop: %v", desc, err)
	}
	d2, _ := NewDispatcher(disp)
	engine, err := SimulateSharded(specs, d2, w, cfg, ShardConfig{})
	if err != nil {
		t.Fatalf("%s: engine: %v", desc, err)
	}
	agreeWithin(t, desc, serial, engine)
	return engine
}

// agreeWithin checks that the engine agrees with the reference loop on
// every count exactly, per-server dispatches included, and on every
// statistic to 1e-9.
func agreeWithin(t *testing.T, desc string, serial, engine *Result) {
	t.Helper()
	ints := []struct {
		name      string
		got, want int
	}{
		{"completed", engine.Completed, serial.Completed},
		{"counted", engine.Counted, serial.Counted},
		{"redispatches", engine.Redispatches, serial.Redispatches},
		{"dropped", engine.Dropped, serial.Dropped},
		{"parked", engine.Parked, serial.Parked},
	}
	for _, c := range ints {
		if c.got != c.want {
			t.Errorf("%s: %s differs: engine %d vs reference %d", desc, c.name, c.got, c.want)
		}
	}
	floats := []struct {
		name      string
		got, want float64
	}{
		{"mean turnaround", engine.MeanTurnaround, serial.MeanTurnaround},
		{"p50", engine.P50Turnaround, serial.P50Turnaround},
		{"p95", engine.P95Turnaround, serial.P95Turnaround},
		{"p99", engine.P99Turnaround, serial.P99Turnaround},
		{"utilisation", engine.Utilisation, serial.Utilisation},
		{"empty fraction", engine.EmptyFraction, serial.EmptyFraction},
		{"throughput", engine.Throughput, serial.Throughput},
		{"elapsed", engine.Elapsed, serial.Elapsed},
		{"availability", engine.Availability, serial.Availability},
		{"goodput", engine.Goodput, serial.Goodput},
		{"wasted work", engine.WastedWork, serial.WastedWork},
		{"retry p50", engine.RetryP50, serial.RetryP50},
		{"retry p99", engine.RetryP99, serial.RetryP99},
	}
	for _, c := range floats {
		if relErr(c.got, c.want) > 1e-9 {
			t.Errorf("%s: %s diverges: engine %v vs reference %v", desc, c.name, c.got, c.want)
		}
	}
	for i := range serial.PerServer {
		if engine.PerServer[i].Dispatched != serial.PerServer[i].Dispatched {
			t.Errorf("%s: server %d dispatched %d (engine) vs %d (reference)",
				desc, i, engine.PerServer[i].Dispatched, serial.PerServer[i].Dispatched)
		}
	}
}
