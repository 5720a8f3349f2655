package eventsim

import "symbiosched/internal/metrics"

// ServerMetrics is the server-layer instrument set. A nil *ServerMetrics
// (the default) is the disabled state: Advance, Reschedule and
// MarginalInstTP guard their single hook behind one nil check, keeping
// their 0 allocs/op pins and benchmark profile intact.
//
// Instruments are not synchronised. One set may be shared by many
// servers that one goroutine steps: the farm engine hands every server of
// a run the same set, so the gauges and counters total the fleet, summed
// in the engine's deterministic event order. All observations happen at
// a server's own events with that server's own dt, so the accumulated
// values do not depend on how the engine slices time into advance
// horizons.
type ServerMetrics struct {
	// Busy integrates the number of occupied contexts over time; Queue
	// integrates jobs in system (running + waiting) over time.
	Busy, Queue *metrics.Gauge
	// Occupancy is the time-weighted distribution of co-schedule sizes
	// (how much wall time the server spent running 0, 1, 2, ... jobs).
	Occupancy *metrics.Histogram
	// MargHit counts MarginalInstTP probes answered from the table's
	// precomputed marginal row (the decision rates are the server's own
	// table, directly or through online.Oracle); MargMiss counts probes
	// of any other, learned, source. The split is fixed by the source, so
	// perfbench's eventsim.marg_hit_ratio reads 1 on megafarm (oracle
	// rates) and 0 on learnfarm (pairwise learners).
	MargHit, MargMiss *metrics.Counter
	// Reschedules and Advances count the stepping primitives.
	Reschedules, Advances *metrics.Counter
}

// NewServerMetrics registers the server instruments on c (nil c → nil
// ServerMetrics, the disabled state).
func NewServerMetrics(c *metrics.Collector) *ServerMetrics {
	if c == nil {
		return nil
	}
	return &ServerMetrics{
		Busy:        c.Gauge("server_busy"),
		Queue:       c.Gauge("server_queue"),
		Occupancy:   c.Histogram("server_occupancy", 0, 6),
		MargHit:     c.Counter("server_marg_hit"),
		MargMiss:    c.Counter("server_marg_miss"),
		Reschedules: c.Counter("server_reschedules"),
		Advances:    c.Counter("server_advances"),
	}
}

// advance records one Advance(dt) interval: jobs in system and contexts
// occupied, both weighted by the interval length.
func (sm *ServerMetrics) advance(jobs, running int, dt float64) {
	sm.Advances.Inc()
	sm.Queue.Observe(float64(jobs), dt)
	sm.Busy.Observe(float64(running), dt)
	sm.Occupancy.Observe(float64(running), dt)
}

// SetMetrics installs (or, with nil, removes) the server's instrument
// set. Call it before the run starts; the instruments only observe and
// never feed back into decisions.
func (sv *Server) SetMetrics(m *ServerMetrics) {
	sv.met = m
	sv.setHooks()
}
