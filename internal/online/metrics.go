package online

import "symbiosched/internal/metrics"

// Metrics is the learning-layer instrument set. A nil *Metrics (the
// default) is the disabled state; the estimators guard their hooks
// behind one nil check, keeping the allocation-free observe path intact.
type Metrics struct {
	// Observations counts effective ObserveInterval calls (degenerate
	// zero-length or empty intervals are dropped before counting, exactly
	// as they are dropped before updating the model).
	Observations *metrics.Counter
	// EpochBumps counts rate-epoch increments — every one invalidates
	// downstream decision memos, so the ratio of bumps to decisions
	// bounds how much memoization can ever help over a learning source.
	EpochBumps *metrics.Counter
	// Solves counts actual lazy refits (Pairwise ridge solves); queries
	// answered by a clean fit don't count.
	Solves *metrics.Counter
}

// NewMetrics registers the learning instruments on c (nil c → nil
// Metrics, the disabled state).
func NewMetrics(c *metrics.Collector) *Metrics {
	if c == nil {
		return nil
	}
	return &Metrics{
		Observations: c.Counter("online_observations"),
		EpochBumps:   c.Counter("online_epoch_bumps"),
		Solves:       c.Counter("online_solves"),
	}
}

// observed is the nil-receiver-safe hook the estimators call where they
// bump nobs: one effective observation, one epoch bump.
func (m *Metrics) observed() {
	if m != nil {
		m.Observations.Inc()
		m.EpochBumps.Inc()
	}
}

// SetMetrics installs (or, with nil, removes) the sampler's instrument
// set.
func (s *Sampler) SetMetrics(m *Metrics) { s.met = m }

// SetMetrics installs (or, with nil, removes) the pairwise estimator's
// instrument set.
func (p *Pairwise) SetMetrics(m *Metrics) { p.met = m }

// AttachMetrics hands the instrument set to a rate source, when it is an
// estimator that learns (the oracle table and Oracle wrapper neither
// observe nor solve, so there is nothing to count). Attaching nil
// restores the disabled state.
func AttachMetrics(rs RateSource, m *Metrics) {
	switch es := rs.(type) {
	case *Sampler:
		es.SetMetrics(m)
	case *Pairwise:
		es.SetMetrics(m)
	}
}
