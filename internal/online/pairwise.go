package online

import (
	"slices"

	"symbiosched/internal/linalg"
	"symbiosched/internal/workload"
)

// PairwiseConfig parameterises the model-based estimator.
type PairwiseConfig struct {
	// Ridge is the L2 regularisation weight pulling interference
	// coefficients toward zero — the no-interference prior (default 1e-3).
	Ridge float64
	// MinRate and MaxRate clamp predicted WIPCs so a prediction can never
	// be non-positive or absurdly optimistic (defaults 0.05 and 1.5).
	MinRate, MaxRate float64
}

func (c PairwiseConfig) withDefaults() PairwiseConfig {
	if c.Ridge <= 0 {
		c.Ridge = 1e-3
	}
	if c.MinRate <= 0 {
		c.MinRate = 0.05
	}
	if c.MaxRate <= 0 {
		c.MaxRate = 1.5
	}
	return c
}

// Pairwise learns a per-pair interference matrix from observed interval
// rates: the WIPC of a type-b job in coschedule c is modelled as
//
//	wipc_b(c) = 1 + sum over co-runner slots t of beta[b][t]
//
// with the intercept pinned at the solo rate (WIPC 1 by definition).
// Every observed interval contributes one dt-weighted sample per distinct
// type in the coschedule; the per-type normal equations are accumulated
// incrementally (an n-by-n Gram matrix per type, n the suite size) and
// re-solved lazily with ridge regularisation, over only the block of
// types that co-ran with the solved type. Laziness is per type: an
// observation only marks the types it touched dirty, and a query
// re-solves just the queried type, once, however many observations
// arrived since its last solve — so the ridge cost scales with queries
// of stale types, not with observations. Because the model factors
// interference into pairwise terms, it predicts rates for multisets it
// has never run — the generalisation the sampler lacks — at the cost of a
// linear-superposition assumption the true machine only approximates.
type Pairwise struct {
	k, n int
	cfg  PairwiseConfig

	gram []*linalg.Matrix // per type: X' W X, n x n
	rhs  [][]float64      // per type: X' W (y - 1)
	// block, per type: the co-runner types whose Gram rows and rhs
	// entries were ever updated, ascending. Every other row and column
	// of gram and every other rhs entry is exactly zero.
	block [][]int
	beta  [][]float64 // per type: solved coefficients (nil until seen)
	seen  []bool
	obsT  []float64 // per type: total observed time (sample weight mass)

	dirty     []bool // per type: observations newer than beta
	nobs      int
	epochBias uint64 // forced epoch advances (BumpEpoch) on top of nobs

	// met, when non-nil, receives the learning instruments. Nil — the
	// default — keeps the observe and solve paths uninstrumented.
	met *Metrics

	// ObserveInterval scratch, reused across intervals: the interval's
	// distinct types, their slot counts, summed progress and features.
	typesBuf []int
	cntBuf   []int
	workBuf  []float64
	xsBuf    []float64

	// solve scratch: the ridge system over one type's block, grown to
	// the largest block solved so far.
	sys  linalg.Matrix
	sysX []float64
}

// NewPairwise returns a pairwise estimator for a k-context machine over a
// suite of n job types.
func NewPairwise(k, n int, cfg PairwiseConfig) *Pairwise {
	p := &Pairwise{
		k:     k,
		n:     n,
		cfg:   cfg.withDefaults(),
		gram:  make([]*linalg.Matrix, n),
		rhs:   make([][]float64, n),
		block: make([][]int, n),
		beta:  make([][]float64, n),
		seen:  make([]bool, n),
		obsT:  make([]float64, n),
		dirty: make([]bool, n),
	}
	return p
}

// Epoch implements RateSource: the observation count. Predictions drift
// only when ObserveInterval folds in an effective interval (degenerate
// intervals return before mutating anything), and the lazy per-type
// re-solve is a pure function of the accumulated normal equations —
// independent of query order — so within one epoch the model answers
// identically and decisions over it may be memoized until the next
// observation.
func (p *Pairwise) Epoch() uint64 { return uint64(p.nobs) + p.epochBias }

// BumpEpoch implements EpochBumper: force-advance the epoch so that
// decisions memoized over the model are re-derived even though no
// observation arrived — e.g. across a server outage, after which the
// fit may be stale. The fit itself is untouched.
func (p *Pairwise) BumpEpoch() { p.epochBias++ }

// MaxJobWIPC implements the pruning-bound capability: predictions are
// clamped to MaxRate, so the clamp is an admissible per-slot bound (and
// InstTP is the plain sum of the per-slot predictions).
func (p *Pairwise) MaxJobWIPC(int, int) float64 { return p.cfg.MaxRate }

// Name implements RateSource.
func (p *Pairwise) Name() string { return "pairwise" }

// K implements RateSource.
func (p *Pairwise) K() int { return p.k }

// Observations implements Estimator.
func (p *Pairwise) Observations() int { return p.nobs }

// ObserveInterval implements IntervalObserver: fold the interval's
// measured per-type rates into the normal equations.
func (p *Pairwise) ObserveInterval(cos workload.Coschedule, dt float64, progress []float64) {
	if dt <= 0 || len(cos) == 0 {
		return
	}
	// Interval-invariant scratch, built in one pass over the canonical
	// (sorted) coschedule: each distinct type, its slot count and its
	// progress summed in slot order. The observe path runs at every
	// simulated interval and must not allocate.
	p.typesBuf, p.cntBuf, p.workBuf = p.typesBuf[:0], p.cntBuf[:0], p.workBuf[:0]
	for j, t := range cos {
		if j == 0 || t != cos[j-1] {
			p.typesBuf = append(p.typesBuf, t)
			p.cntBuf = append(p.cntBuf, 0)
			p.workBuf = append(p.workBuf, 0)
		}
		last := len(p.typesBuf) - 1
		p.cntBuf[last]++
		p.workBuf[last] += progress[j]
	}
	types := p.typesBuf
	if cap(p.xsBuf) < len(types) {
		p.xsBuf = make([]float64, len(types))
	}
	xs := p.xsBuf[:len(types)]
	// One sample per distinct type: same-type slots are symmetric.
	for bi, b := range types {
		// Measured WIPC of one type-b job, averaged over its slots.
		y := p.workBuf[bi] / (float64(p.cntBuf[bi]) * dt)
		if p.gram[b] == nil {
			p.gram[b] = linalg.NewMatrix(p.n, p.n)
			p.rhs[b] = make([]float64, p.n)
		}
		// Feature vector: co-runner counts (x[t] = count_t minus one for
		// b itself). Only the coschedule's types are non-zero, so the
		// rank-1 Gram update touches at most k*k entries.
		for ti := range types {
			x := float64(p.cntBuf[ti])
			if ti == bi {
				x--
			}
			xs[ti] = x
		}
		g, r := p.gram[b], p.rhs[b]
		for ti, t := range types {
			if xs[ti] == 0 {
				continue
			}
			if i, found := slices.BinarySearch(p.block[b], t); !found {
				p.block[b] = slices.Insert(p.block[b], i, t)
			}
			r[t] += dt * (y - 1) * xs[ti]
			for tj, u := range types {
				if xs[tj] == 0 {
					continue
				}
				g.Set(t, u, g.At(t, u)+dt*xs[ti]*xs[tj])
			}
		}
		p.seen[b] = true
		p.obsT[b] += dt
		p.dirty[b] = true
	}
	p.nobs++
	p.met.observed()
}

// solve refits type b's coefficients from its accumulated normal
// equations, if observations arrived since the last fit. The ridge term
// keeps the system positive definite even before every pair has been
// observed, shrinking unidentified coefficients to the no-interference
// prior. Solving per queried type is what makes the laziness genuine: a
// burst of observations costs one re-solve per type at its next query,
// not one per observation.
//
// Only b's block enters the elimination. In the full n x n system every
// type outside the block has a zero row and column apart from the ridge
// on its diagonal, and a zero right-hand side: it never wins a pivot,
// takes no fill-in and solves to exactly +0. Eliminating the block alone
// therefore performs the full solve's arithmetic on the block, in the
// same order, and leaves the other coefficients at their +0 — the full
// solve's result bit for bit, without allocating.
func (p *Pairwise) solve(b int) {
	if !p.dirty[b] || !p.seen[b] {
		return
	}
	p.dirty[b] = false
	if p.met != nil {
		p.met.Solves.Inc()
	}
	block := p.block[b]
	m := len(block)
	if cap(p.sysX) < m {
		p.sys.Data = make([]float64, m*m)
		p.sysX = make([]float64, m)
	}
	a, x := &p.sys, p.sysX[:m]
	a.Rows, a.Cols, a.Data = m, m, a.Data[:m*m]
	g, r := p.gram[b], p.rhs[b]
	// Scale the ridge with the accumulated weight so regularisation
	// stays a prior, not a cap, as evidence grows.
	lambda := p.cfg.Ridge * (1 + p.obsT[b])
	for i, t := range block {
		row := a.Data[i*m : (i+1)*m]
		for j, u := range block {
			row[j] = g.At(t, u)
		}
		row[i] += lambda
		x[i] = r[t]
	}
	if err := linalg.SolveInPlace(a, x); err != nil {
		return // keep the previous fit; ridge makes this unreachable
	}
	if p.beta[b] == nil {
		p.beta[b] = make([]float64, p.n)
	}
	for i, t := range block {
		p.beta[b][t] = x[i]
	}
}

// Coef returns the fitted interference coefficient of co-runner type t on
// type b (0 until observed) — the learned pairwise matrix entry.
func (p *Pairwise) Coef(b, t int) float64 {
	p.solve(b)
	if p.beta[b] == nil {
		return 0
	}
	return p.beta[b][t]
}

// JobWIPC implements RateSource: the model prediction, clamped to a
// positive range; types never observed fall back to the solo prior.
func (p *Pairwise) JobWIPC(c workload.Coschedule, b int) float64 {
	p.solve(b)
	pred := 1.0
	if beta := p.beta[b]; beta != nil {
		for _, t := range c {
			pred += beta[t]
		}
		pred -= beta[b] // b's own slot is not a co-runner
	}
	if pred < p.cfg.MinRate {
		return p.cfg.MinRate
	}
	if pred > p.cfg.MaxRate {
		return p.cfg.MaxRate
	}
	return pred
}

// InstTP implements RateSource: the sum of the per-slot predictions.
func (p *Pairwise) InstTP(c workload.Coschedule) float64 {
	var sum float64
	for _, typ := range c {
		sum += p.JobWIPC(c, typ)
	}
	return sum
}
