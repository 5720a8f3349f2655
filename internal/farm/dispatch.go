package farm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"symbiosched/internal/eventsim"
	"symbiosched/internal/sched"
	"symbiosched/internal/stats"
)

// Dispatcher routes each arriving job to one server. Pick runs at the
// job's arrival event and may inspect every server's queue length, table
// and currently running coschedule; rng is the dispatch stream (shared by
// no other component, so randomised policies stay deterministic per seed).
// Implementations must be deterministic given (job, server states, rng).
//
// Under fault injection servers can be out of service (Server.Up
// reports false): every policy must skip them — graceful degradation to
// the up-set. up is the number of in-service servers; the engines pass
// len(servers) when faults are disabled and never call Pick with
// up == 0 (an all-down farm parks arrivals instead of dispatching).
// With every server up the policies draw and pick bit-identically to
// the pre-fault dispatchers.
//
// Pick must not keep j, or any job it reaches through a server, to read
// after it returns: the engines recycle a job's storage for a later
// arrival once its completion is folded.
type Dispatcher interface {
	// Name identifies the policy in reports.
	Name() string
	// Pick returns the index of the destination (in-service) server.
	Pick(j *sched.Job, servers []*eventsim.Server, up int, rng *stats.RNG) int
}

// Random routes each job to a uniformly random up server, by rejection
// sampling over the full index range (with every server up the first
// draw always lands, so the stream is the historical single Intn).
type Random struct{}

// Name implements Dispatcher.
func (Random) Name() string { return "random" }

// Pick implements Dispatcher.
func (Random) Pick(_ *sched.Job, servers []*eventsim.Server, _ int, rng *stats.RNG) int {
	for {
		i := rng.Intn(len(servers))
		if servers[i].Up() {
			return i
		}
	}
}

// RoundRobin cycles through the servers in index order, passing over
// down servers (the cursor still advances past them, so a repaired
// server rejoins the rotation in its place).
type RoundRobin struct{ next int }

// Name implements Dispatcher.
func (*RoundRobin) Name() string { return "rr" }

// Pick implements Dispatcher.
func (d *RoundRobin) Pick(_ *sched.Job, servers []*eventsim.Server, _ int, _ *stats.RNG) int {
	for range servers {
		i := d.next % len(servers)
		d.next = (i + 1) % len(servers)
		if servers[i].Up() {
			return i
		}
	}
	return -1 // unreachable: the engines never Pick with up == 0
}

// JoinShortestQueue routes each job to the server with the fewest jobs in
// system; ties go to the lowest index.
type JoinShortestQueue struct{}

// Name implements Dispatcher.
func (JoinShortestQueue) Name() string { return "jsq" }

// Pick implements Dispatcher.
func (JoinShortestQueue) Pick(_ *sched.Job, servers []*eventsim.Server, _ int, _ *stats.RNG) int {
	best, bestLen := -1, 0
	for i, sv := range servers {
		if !sv.Up() {
			continue
		}
		if n := sv.JobsInSystem(); best < 0 || n < bestLen {
			best, bestLen = i, n
		}
	}
	return best
}

// LeastInterference is the symbiosis-aware policy: among servers with a
// free context it probes each server's rate source — the oracle table,
// or the learned estimator when the server runs online — for the marginal
// instantaneous throughput of adding the arriving job next to the jobs
// already running there — InstTP(running + job) - InstTP(running), the
// rate the farm actually gains — and picks the server where the job
// interferes least (an idle server scores the job's solo rate, WIPC 1).
// When every server is saturated it falls back to the shortest queue.
// Ties go to the lowest index, keeping the policy deterministic.
//
// The probe goes through eventsim.Server.MarginalInstTP, which computes
// exactly the score above: over the oracle table it reads the table's
// precomputed marginal row, over a learned source it probes the source
// twice. Either way a Pick allocates nothing.
type LeastInterference struct{}

// Name implements Dispatcher.
func (*LeastInterference) Name() string { return "li" }

// Pick implements Dispatcher.
func (*LeastInterference) Pick(j *sched.Job, servers []*eventsim.Server, up int, rng *stats.RNG) int {
	best, bestGain := -1, math.Inf(-1)
	for i, sv := range servers {
		if !sv.Up() || sv.JobsInSystem() >= sv.K() {
			continue
		}
		if gain := sv.MarginalInstTP(j.Type); gain > bestGain+1e-12 {
			best, bestGain = i, gain
		}
	}
	if best >= 0 {
		return best
	}
	// Every up server saturated: shortest queue over the up-set.
	return JoinShortestQueue{}.Pick(j, servers, up, rng)
}

// PowerOfD is the supermarket-model dispatcher: per arrival it probes D
// seeded-random distinct servers and places the job on the probed server
// where it interferes least, by exactly the marginal-InstTP score
// LeastInterference uses. It interpolates between the farm's extremes:
//
//   - D = 1 draws one uniform server index — bit-identical to Random
//     (same single Intn draw from the same dispatch stream).
//   - D >= N delegates to LeastInterference verbatim — bit-identical to
//     li (no RNG draw, same full probe in server index order).
//
// Probe sets are drawn from the dispatch stream by rejection sampling
// and kept sorted ascending, so ties inside the probe set resolve to the
// lowest server index, like li. When every probed server is saturated
// the job joins the shortest queue within the probe set — the supermarket
// model never looks beyond its sample.
//
// Under fault injection probes re-draw from the up-set (a down server
// rejects like a duplicate) and the probe count clamps to the number of
// up servers, so pd degrades to sampling among whatever is in service.
// The equivalences above hold verbatim while every server is up.
type PowerOfD struct {
	D int

	probes []int             // sorted probe-set scratch
	li     LeastInterference // shared full-probe path for d >= N
}

// norm returns the effective probe count: D clamped up to 1, so a
// zero-valued PowerOfD behaves — and reports itself — as pd1. Name and
// Pick both go through it, keeping the label and the behaviour in sync.
func (p *PowerOfD) norm() int { return max(p.D, 1) }

// Name implements Dispatcher.
func (p *PowerOfD) Name() string { return fmt.Sprintf("pd%d", p.norm()) }

// sample fills the probe scratch with d distinct uniform up-server
// indices, sorted ascending. Rejection sampling (down servers and
// duplicates redraw alike) keeps the d = 1 stream equal to Random's and
// stays O(d^2) per arrival for d << n; with every server up it is the
// historical distinct-index sampler draw for draw.
func (p *PowerOfD) sample(d int, servers []*eventsim.Server, rng *stats.RNG) []int {
	p.probes = p.probes[:0]
	for len(p.probes) < d {
		c := rng.Intn(len(servers))
		if !servers[c].Up() {
			continue // down: re-draw the probe from the up-set
		}
		at := 0
		for at < len(p.probes) && p.probes[at] < c {
			at++
		}
		if at < len(p.probes) && p.probes[at] == c {
			continue // duplicate: redraw
		}
		p.probes = append(p.probes, 0)
		copy(p.probes[at+1:], p.probes[at:])
		p.probes[at] = c
	}
	return p.probes
}

// Pick implements Dispatcher.
func (p *PowerOfD) Pick(j *sched.Job, servers []*eventsim.Server, up int, rng *stats.RNG) int {
	d := p.norm()
	if d > up {
		d = up // can't probe more distinct up servers than exist
	}
	if d >= len(servers) {
		return p.li.Pick(j, servers, up, rng)
	}
	probes := p.sample(d, servers, rng)
	best, bestGain := -1, math.Inf(-1)
	for _, i := range probes {
		sv := servers[i]
		if sv.JobsInSystem() >= sv.K() {
			continue
		}
		if gain := sv.MarginalInstTP(j.Type); gain > bestGain+1e-12 {
			best, bestGain = i, gain
		}
	}
	if best >= 0 {
		return best
	}
	// Every probed server is saturated: shortest queue within the probe
	// set; probes are sorted, so ties go to the lowest index.
	best, bestLen := probes[0], servers[probes[0]].JobsInSystem()
	for _, i := range probes[1:] {
		if n := servers[i].JobsInSystem(); n < bestLen {
			best, bestLen = i, n
		}
	}
	return best
}

// DispatcherNames lists the built-in policies in presentation order.
// The power-of-d family is named separately ("pd", "pd3", ...) so the
// default list — and every golden output swept over it — is stable.
var DispatcherNames = []string{"random", "rr", "jsq", "li"}

// NewDispatcher builds a fresh dispatcher by name. Stateful policies
// (round-robin, power-of-d scratch) must not be shared across
// simulations, so sweeps call this once per run.
func NewDispatcher(name string) (Dispatcher, error) {
	switch name {
	case "random":
		return Random{}, nil
	case "rr":
		return &RoundRobin{}, nil
	case "jsq":
		return JoinShortestQueue{}, nil
	case "li":
		return &LeastInterference{}, nil
	default:
		if rest, ok := strings.CutPrefix(name, "pd"); ok {
			d := 2
			if rest != "" {
				v, err := strconv.Atoi(rest)
				if err != nil || v < 1 {
					return nil, fmt.Errorf("farm: bad probe count in dispatcher %q (want pd or pd<d> with d >= 1)", name)
				}
				d = v
			}
			return &PowerOfD{D: d}, nil
		}
		return nil, fmt.Errorf("farm: unknown dispatcher %q (want one of %s, or pd[<d>])",
			name, strings.Join(DispatcherNames, ", "))
	}
}
