package eventsim

import (
	"fmt"
	"math"

	"symbiosched/internal/sched"
)

// Completion is one finished job with its absolute completion time and
// the index (within the group) of the server that ran it.
type Completion struct {
	T      float64
	Server int
	Job    *sched.Job
}

// Group steps a fleet of servers on one event heap: each server keeps
// its own local clock and is advanced lazily, only at its own events — a
// completion, a delivered arrival, a caller's Settle, or a final settle.
// Server state is piecewise-constant between its own events, so skipping
// the intermediate global events changes nothing observable at this
// server; only the order in which the busy/empty/work Kahan integrals
// accumulate their (identical) interval terms differs from a lockstep
// loop, an ulp-magnitude effect. (A learned rate source is the
// exception: it has not measured the interval since the server's last
// event, which is what Settle is for.)
//
// A TimeHeap keyed by absolute next-completion times orders the fleet's
// events, ties by server index, so completions pop in (time, server
// index) order: a deterministic function of the group's inputs,
// independent of how the caller slices time into advance horizons. The
// farm engine (internal/farm.SimulateSharded) drives one Group over its
// whole fleet.
//
// The group steps the fleet slab itself, and each server keeps its own
// local clock, so an event reads the popped server's memory and the
// heap's, and nothing indexed by server elsewhere.
type Group struct {
	servers []Server
	h       *TimeHeap    // absolute next-completion time per server
	done    []*sched.Job // the popped server's completions, or a crash's victims
	buf     []Completion // the point events' completions, at most K
}

// NewGroup returns a group over the given (freshly built, empty) servers,
// the slab NewServers returns. The group owns their stepping; the caller
// must not Advance them directly.
func NewGroup(servers []Server) *Group {
	return &Group{servers: servers, h: NewTimeHeap(len(servers))}
}

// NextEvent returns the absolute time of the group's earliest pending
// completion, or +Inf when no server is busy.
func (g *Group) NextEvent() float64 { return g.h.Min() }

// refresh re-keys server i's heap entry from its cached time-to-next-
// completion at local time t. The one-ulp bump guards against float
// stagnation: at large t a positive ttc below one ulp would otherwise
// re-pop the same server forever with dt = 0.
func (g *Group) refresh(i int, t float64) {
	ttc := g.servers[i].TimeToNextCompletion()
	if math.IsInf(ttc, 1) {
		g.h.Update(i, math.Inf(1))
		return
	}
	key := t + ttc
	if key <= t {
		key = math.Nextafter(t, math.Inf(1))
	}
	g.h.Update(i, key)
}

// AdvanceTo processes every completion in the group with event time at
// most horizon, in (time, server index) order, advancing only the
// servers involved, and hands each completion to emit as it pops. emit
// must not call back into the group.
func (g *Group) AdvanceTo(horizon float64, emit func(Completion)) error {
	for {
		t := g.h.Min()
		// An idle group (t = +Inf) terminates even against an infinite
		// drain horizon; a completion exactly at a finite horizon is
		// processed (inclusive bound — the serial tie rule).
		if math.IsInf(t, 1) || t > horizon {
			return nil
		}
		i := g.h.MinIndex()
		done := g.advanceAt(i, t)
		if len(done) > 0 {
			if err := g.servers[i].Reschedule(); err != nil {
				return err
			}
		}
		g.refresh(i, t)
		for _, j := range done {
			emit(Completion{T: t, Server: i, Job: j})
		}
	}
}

// advanceAt is the shared prologue of the group's point events
// (Settle/Deliver/Fail/Repair/SettleTo): bring server i's local clock to
// absolute time t and return the jobs that finished on the way — all at
// t itself, within the completion epsilon, exactly as a lockstep advance
// would complete them — in the group's scratch. The caller applies its
// event and refreshes the heap afterwards.
func (g *Group) advanceAt(i int, t float64) []*sched.Job {
	sv := &g.servers[i]
	dt := t - sv.clock
	if dt < 0 {
		dt = 0
	}
	g.done = sv.Advance(dt, g.done[:0])
	sv.clock = t
	return g.done
}

// completeAt is advanceAt recording the finished jobs as completions at
// t in the group's scratch buffer, which it returns.
func (g *Group) completeAt(i int, t float64) []Completion {
	g.buf = g.buf[:0]
	for _, dj := range g.advanceAt(i, t) {
		g.buf = append(g.buf, Completion{T: t, Server: i, Job: dj})
	}
	return g.buf
}

// Settle brings server i to absolute time t without adding a job:
// Deliver's prologue on its own. Its observers see the interval since
// the server's last event, so a learned rate source probed at t has
// measured everything up to t. Jobs finishing within the completion
// epsilon at t are returned and the server rescheduled; the heap key is
// refreshed either way. The caller must have processed all group events
// up to t first (AdvanceTo(t)). The returned slice shares the group's
// scratch buffer.
func (g *Group) Settle(t float64, i int) ([]Completion, error) {
	if i < 0 || i >= len(g.servers) {
		return nil, fmt.Errorf("eventsim: settle server %d of %d", i, len(g.servers))
	}
	done := g.completeAt(i, t)
	if len(done) > 0 {
		if err := g.servers[i].Reschedule(); err != nil {
			return nil, err
		}
	}
	g.refresh(i, t)
	return done, nil
}

// Deliver routes job j to server i at absolute time t: the server is
// advanced to t (any job finishing within the completion epsilon at t is
// returned, exactly as a lockstep advance would complete it), the job is
// added and the server rescheduled. The caller must have processed all
// group events up to t first (AdvanceTo(t)). The returned slice shares
// the group's scratch buffer.
func (g *Group) Deliver(t float64, i int, j *sched.Job) ([]Completion, error) {
	if i < 0 || i >= len(g.servers) {
		return nil, fmt.Errorf("eventsim: deliver to server %d of %d", i, len(g.servers))
	}
	done := g.completeAt(i, t)
	sv := &g.servers[i]
	sv.Add(j)
	if err := sv.Reschedule(); err != nil {
		return nil, err
	}
	g.refresh(i, t)
	return done, nil
}

// Fail crashes server i at absolute time t: the server is first
// advanced to t (a job finishing within the completion epsilon at the
// crash instant completes normally, exactly as Deliver would complete
// it), then evicted and taken out of service. The completions and the
// evicted victims are returned; both are the group's scratch and must
// be consumed before the next call into this group. The caller must
// have processed all group events up to t first (AdvanceTo(t)).
func (g *Group) Fail(t float64, i int) ([]Completion, []*sched.Job, error) {
	if i < 0 || i >= len(g.servers) {
		return nil, nil, fmt.Errorf("eventsim: fail server %d of %d", i, len(g.servers))
	}
	done := g.completeAt(i, t)
	g.done = g.servers[i].Fail(g.done[:0])
	g.refresh(i, t) // time-to-completion is now +Inf: leaves the heap
	return done, g.done, nil
}

// Repair returns server i to service at absolute time t, closing its
// down-time integral up to t. A failed server completes nothing, so
// crossing a completion here is a protocol violation.
func (g *Group) Repair(t float64, i int) error {
	if i < 0 || i >= len(g.servers) {
		return fmt.Errorf("eventsim: repair server %d of %d", i, len(g.servers))
	}
	if done := g.advanceAt(i, t); len(done) > 0 {
		return fmt.Errorf("eventsim: repair crossed %d completions at server %d", len(done), i)
	}
	g.servers[i].Repair()
	g.refresh(i, t)
	return nil
}

// SettleTo advances every server's local clock to t, closing the
// busy/empty integrals at a common end time. It is the end-of-run
// counterpart of AdvanceTo and must not cross any pending completion.
func (g *Group) SettleTo(t float64) error {
	for i := range g.servers {
		if t-g.servers[i].clock <= 0 {
			continue
		}
		if done := g.advanceAt(i, t); len(done) > 0 {
			return fmt.Errorf("eventsim: group settle crossed %d completions at server %d", len(done), i)
		}
		g.refresh(i, t)
	}
	return nil
}
