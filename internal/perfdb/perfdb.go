// Package perfdb builds and serves the per-coschedule performance database
// the study consumes: for every multiset of 1..K jobs drawn from the
// benchmark suite, the per-job execution rates on a given machine.
//
// The paper simulated "all 1,365 combinations (with repetition) of 4
// benchmarks out of the 12 selected" per configuration with Sniper; here a
// Model (the mechanistic SMT or multicore model, or the cycle-level
// simulator) plays Sniper's role. Coschedules smaller than K are included
// too because the latency experiments of Section VI run partially loaded.
//
// Rates are expressed both as raw IPC and as WIPC (weighted instructions
// per cycle): a job's IPC divided by its solo IPC on the same machine,
// the paper's unit of work (Section III-B). A job "sized 1" thus takes
// exactly one time unit when run alone, and per-coschedule instantaneous
// throughput it(s) is the sum of its jobs' WIPCs.
package perfdb

import (
	"context"
	"fmt"
	"slices"

	"symbiosched/internal/multicore"
	"symbiosched/internal/program"
	"symbiosched/internal/runner"
	"symbiosched/internal/smtmodel"
	"symbiosched/internal/uarch"
	"symbiosched/internal/workload"
)

// Model maps a list of co-running jobs (1..K profiles) to their per-slot
// IPCs. Implementations must be symmetric: permuting the input permutes
// the output. They must be safe for concurrent use.
type Model interface {
	// Name identifies the model/machine (used in reports).
	Name() string
	// Contexts is K, the number of cores or hardware thread contexts.
	Contexts() int
	// SlotIPC returns the IPC of each job in the coschedule, aligned
	// with the input slice.
	SlotIPC(jobs []*program.Profile) []float64
}

// SMTModel adapts the mechanistic SMT sharing model to the Model interface.
type SMTModel struct{ Machine uarch.SMTMachine }

// Name implements Model.
func (m SMTModel) Name() string { return m.Machine.String() }

// Contexts implements Model.
func (m SMTModel) Contexts() int { return m.Machine.Threads }

// SlotIPC implements Model.
func (m SMTModel) SlotIPC(jobs []*program.Profile) []float64 {
	return smtmodel.Rates(m.Machine, jobs).IPC
}

// MulticoreModel adapts the multicore model to the Model interface.
type MulticoreModel struct{ Machine uarch.MulticoreMachine }

// Name implements Model.
func (m MulticoreModel) Name() string { return m.Machine.String() }

// Contexts implements Model.
func (m MulticoreModel) Contexts() int { return m.Machine.Cores }

// SlotIPC implements Model.
func (m MulticoreModel) SlotIPC(jobs []*program.Profile) []float64 {
	return multicore.Rates(m.Machine, jobs).IPC
}

// UniformModel is a synthetic machine with K symmetric contexts and no
// interference: every job runs at IPC 1 regardless of its co-runners, so
// every WIPC in the resulting table is exactly 1. With exponential job
// sizes the event simulation over such a table is a textbook M/M/K queue,
// which makes the model the analytic cross-validation oracle for the
// simulators (internal/farm pins itself to queueing.MMC through it).
type UniformModel struct{ K int }

// Name implements Model.
func (m UniformModel) Name() string { return fmt.Sprintf("uniform-%d", m.K) }

// Contexts implements Model.
func (m UniformModel) Contexts() int { return m.K }

// SlotIPC implements Model.
func (m UniformModel) SlotIPC(jobs []*program.Profile) []float64 {
	ipc := make([]float64, len(jobs))
	for i := range ipc {
		ipc[i] = 1
	}
	return ipc
}

// Entry is the stored performance of one coschedule.
type Entry struct {
	// Cos is the canonical (sorted) coschedule in global type indices.
	Cos workload.Coschedule
	// SlotIPC is the raw IPC per slot, aligned with Cos.
	SlotIPC []float64
	// InstTP is the instantaneous throughput it(s): the sum over slots of
	// WIPC, i.e. sum over types of r_b(s) in the paper's Eq. (1).
	InstTP float64

	// wipc[b] is the WIPC of one job of global type b in this coschedule
	// (0 when the type is absent), indexed by suite position. Jobs of the
	// same type are symmetric, so one number per type suffices.
	wipc []float64
	// marg[b] is InstTP(Cos+b) - InstTP(Cos), the marginal row; nil for
	// full (K-slot) entries. Derived by the table (build, load, clone,
	// override).
	marg []float64
}

// TypeWIPCs returns the entry's per-type WIPCs as a dense suite-indexed
// slice (0 for absent types): one index for the entry resolves every
// type's rate. Callers must not mutate it, and may retain it only while
// the table's Epoch stands (overrides are build-time edits, so within a
// run that is forever).
func (e *Entry) TypeWIPCs() []float64 { return e.wipc }

// Marginal returns the entry's marginal row: element b is the stored
// InstTP of the coschedule plus one type-b job minus the entry's own
// InstTP — the same two stored values and the same subtraction a direct
// two-probe computation performs, so the row is equal to it bit for
// bit. Full (K-slot) entries have no row (nil). Callers must not mutate
// it.
func (e *Entry) Marginal() []float64 { return e.marg }

// Table is the complete performance database for one machine.
type Table struct {
	name  string
	k     int
	suite []program.Profile
	// Solo[b] is the solo IPC of benchmark b on this machine (the WIPC
	// reference).
	Solo []float64
	// byRank[r] is the entry of the multiset of rank r (Rank); index 0,
	// the empty multiset, is nil. steps[i*len(suite)+b] is what a type-b
	// job at sorted position i adds to a rank (RankAppend).
	byRank []*Entry
	steps  []int
	// maxWIPCBySize[s-1][b] is the maximum WIPC a type-b job attains over
	// every stored s-slot coschedule — the admissible per-slot rate bound
	// MaxJobWIPC serves. The size axis matters: WIPC is normalized, so the
	// all-sizes maximum is 1 for every type (its solo entry attains it) and
	// would never prune anything; but within one Select every candidate has
	// the same slot count, so the exact size class applies, and interference
	// makes it tighten sharply as coschedules fill up. Derived eagerly
	// (build, load, clone, override) because tables are shared read-only
	// across sweep goroutines, as are the marginal rows.
	maxWIPCBySize [][]float64
	// idle[b] is InstTP({b}): the marginal row of the empty coschedule.
	idle []float64
}

// Key encodes a canonical coschedule (len <= 8, types < 256) as a uint64,
// one byte per slot behind a leading 1 that tells lengths apart: a packed
// identity for maps outside the table (learners, MAXTP's fractions, the
// cache's file order). The table indexes its entries by Rank instead.
func Key(c workload.Coschedule) uint64 {
	if len(c) > 8 {
		panic("perfdb: coschedule longer than 8")
	}
	k := uint64(1)
	for _, t := range c {
		if t < 0 || t > 255 {
			panic(fmt.Sprintf("perfdb: type %d out of key range", t))
		}
		k = k<<8 | uint64(t+1)
	}
	return k
}

// newTable returns a table with no entries yet, its rank index sized
// for every multiset of 0..k types over suite.
func newTable(name string, k int, suite []program.Profile, solo []float64) *Table {
	n := len(suite)
	t := &Table{name: name, k: k, suite: suite, Solo: solo, steps: make([]int, k*n)}
	// A sorted multiset c of s types maps to the s-subset {c[i] + i} of
	// n+s-1 items, whose colexicographic rank is sum_i C(c[i]+i, i+1);
	// sum_i C(n+i-1, i) counts the multisets of fewer than s types.
	size := 1
	for i := 0; i < k; i++ {
		below := binom(n+i-1, i)
		for b := 0; b < n; b++ {
			t.steps[i*n+b] = binom(b+i, i+1) + below
		}
		size += binom(n+i, i+1)
	}
	t.byRank = make([]*Entry, size)
	return t
}

// binom returns the binomial coefficient C(n, r), 0 when r > n.
func binom(n, r int) int {
	if r < 0 || r > n {
		return 0
	}
	c := 1
	for i := 1; i <= r; i++ {
		c = c * (n - r + i) / i
	}
	return c
}

// Rank returns the dense index of a canonical (sorted) coschedule of
// 1..K types over the suite: the combinatorial number system's rank
// of the multiset, offset by the number of smaller multisets, so every
// coschedule the table stores has its own index in 1..Size(). It
// panics on any other coschedule.
func (t *Table) Rank(c workload.Coschedule) int {
	if len(c) == 0 || len(c) > t.k {
		panic(fmt.Sprintf("perfdb: unknown coschedule %v", c))
	}
	r := 0
	for i, b := range c {
		if b < 0 || b >= len(t.suite) || i > 0 && c[i-1] > b {
			panic(fmt.Sprintf("perfdb: unknown coschedule %v", c))
		}
		r = t.RankAppend(r, i, b)
	}
	return r
}

// RankAppend folds one more type into a rank built left to right over
// a canonical coschedule: RankAppend(Rank(c), len(c), b) ==
// Rank(append(c, b)) for b >= the last type of c, starting from 0 for
// the empty coschedule. Hot paths that build coschedules slot by slot
// keep a running rank with it. Unlike Rank it checks nothing: the
// position must be below K, the type inside the suite, and the types
// folded in ascending order.
func (t *Table) RankAppend(r, i, b int) int { return r + t.steps[i*len(t.suite)+b] }

// EntryByRank is Entry indexed by Rank(c): one slice index, the route
// hot paths take when they fold the rank themselves.
func (t *Table) EntryByRank(r int) *Entry { return t.byRank[r] }

// Build runs the model over every coschedule of size 1..K over the suite
// and returns the populated table. Work is spread over all CPUs; use
// BuildWith to bound parallelism, observe progress or cancel.
func Build(m Model, suite []program.Profile) *Table {
	t, err := BuildWith(context.Background(), runner.Config{}, m, suite)
	if err != nil {
		panic(err) // unreachable: the background context never cancels
	}
	return t
}

// BuildWith is Build with an explicit context and runner configuration.
// The table contents are independent of rc.Parallelism: every coschedule's
// rates land in their enumeration slot and derived quantities are folded
// in enumeration order.
func BuildWith(ctx context.Context, rc runner.Config, m Model, suite []program.Profile) (*Table, error) {
	k := m.Contexts()
	if k < 1 || k > 8 {
		panic(fmt.Sprintf("perfdb: model with %d contexts, want 1..8", k))
	}
	if len(suite) == 0 {
		panic("perfdb: empty suite")
	}
	t := newTable(m.Name(), k, suite, make([]float64, len(suite)))
	// Enumerate all coschedules of every size.
	var all []workload.Coschedule
	for size := 1; size <= k; size++ {
		all = append(all, workload.Multisets(len(suite), size)...)
	}
	results, err := runner.Map(ctx, rc, len(all), func(_ context.Context, i int) ([]float64, error) {
		jobs := make([]*program.Profile, len(all[i]))
		for j, typ := range all[i] {
			jobs[j] = &suite[typ]
		}
		return m.SlotIPC(jobs), nil
	})
	if err != nil {
		return nil, err
	}

	// Solo rates first (they are the size-1 coschedules).
	for i, c := range all {
		if len(c) == 1 {
			t.Solo[c[0]] = results[i][0]
		}
	}
	for b, s := range t.Solo {
		if s <= 0 {
			panic(fmt.Sprintf("perfdb: benchmark %s has non-positive solo IPC", suite[b].ID()))
		}
	}
	for i, c := range all {
		e := &Entry{Cos: c, SlotIPC: results[i], wipc: make([]float64, len(suite))}
		for j, typ := range c {
			w := results[i][j] / t.Solo[typ]
			e.wipc[typ] = w // same-type slots are symmetric; the last one stands
			e.InstTP += w
		}
		t.byRank[t.Rank(c)] = e
	}
	t.recomputeMaxWIPC()
	t.deriveRows()
	return t, nil
}

// recomputeMaxWIPC rebuilds the per-type rate bounds from the stored
// entries.
func (t *Table) recomputeMaxWIPC() {
	t.maxWIPCBySize = make([][]float64, t.k)
	for s := range t.maxWIPCBySize {
		t.maxWIPCBySize[s] = make([]float64, len(t.suite))
	}
	for _, e := range t.byRank[1:] {
		m := t.maxWIPCBySize[len(e.Cos)-1]
		for _, b := range e.Cos {
			if w := e.wipc[b]; w > m[b] {
				m[b] = w
			}
		}
	}
}

// deriveRows rebuilds every marginal row from the stored InstTPs: the
// idle row and, for each entry with fewer than K slots, row[b] =
// InstTP(Cos+b) - InstTP(Cos). Every multiset of 1..K slots must be
// stored (Build enumerates them all; Load validates it).
func (t *Table) deriveRows() {
	n := len(t.suite)
	t.idle = make([]float64, n)
	for b := range t.idle {
		t.idle[b] = t.byRank[t.RankAppend(0, 0, b)].InstTP
	}
	cand := make(workload.Coschedule, 0, t.k)
	for _, e := range t.byRank[1:] {
		if len(e.Cos) == t.k {
			continue
		}
		e.marg = make([]float64, n)
		for b := range e.marg {
			at, _ := slices.BinarySearch(e.Cos, b)
			cand = slices.Insert(append(cand[:0], e.Cos...), at, b)
			e.marg[b] = t.byRank[t.Rank(cand)].InstTP - e.InstTP
		}
	}
}

// Name returns the model/machine name the table was built with.
func (t *Table) Name() string { return t.name }

// K returns the number of contexts.
func (t *Table) K() int { return t.k }

// Suite returns the benchmark suite the table was built over.
func (t *Table) Suite() []program.Profile { return t.suite }

// Entry returns the stored entry for a coschedule (which must be one of
// the built sizes 1..K over the suite).
func (t *Table) Entry(c workload.Coschedule) *Entry { return t.byRank[t.Rank(c)] }

// JobWIPC returns the WIPC of one job of global type b in coschedule c.
// It panics if b is not in c.
func (t *Table) JobWIPC(c workload.Coschedule, b int) float64 {
	e := t.Entry(c)
	if !slices.Contains(e.Cos, b) {
		panic(fmt.Sprintf("perfdb: type %d not in coschedule %v", b, c))
	}
	return e.wipc[b]
}

// IdleMarginal returns the marginal row of the empty coschedule: element
// b is InstTP({b}), the gain of starting one type-b job on an idle
// machine. Callers must not mutate it.
func (t *Table) IdleMarginal() []float64 { return t.idle }

// Epoch reports the table's rate-revision counter (online.RateSource):
// the oracle's rates never drift while a simulation runs, so the epoch is
// constant and per-multiset decisions made over the table stay memoized
// forever. Override is a build-time counterfactual edit: schedulers are
// constructed per run, after any overrides, so a memo never spans one.
func (t *Table) Epoch() uint64 { return 0 }

// MaxJobWIPC returns an upper bound on JobWIPC(c, b) over every stored
// coschedule c of exactly slots slots containing type b — and hence on
// any type-b slot's contribution to InstTP, since InstTP is the sum of
// its slots' WIPCs. Schedulers use it as the admissible bound for
// branch-and-bound pruning (sched's enumerator), which asks with the
// fixed candidate size of the current Select; interference makes the
// size-class maximum fall well below the normalized solo WIPC of 1 as
// coschedules fill up. The bound is exact by construction, not a model
// assumption. Out-of-range sizes clamp to the nearest stored class.
func (t *Table) MaxJobWIPC(b, slots int) float64 {
	s := min(max(slots, 1), t.k)
	return t.maxWIPCBySize[s-1][b]
}

// JobIPC returns the raw IPC of one job of global type b in coschedule c.
func (t *Table) JobIPC(c workload.Coschedule, b int) float64 {
	return t.JobWIPC(c, b) * t.Solo[b]
}

// TypeRate returns r_b(s), the total execution rate of all type-b jobs in
// coschedule c in WIPC units (paper Eq. (1) context): count_b(c) * WIPC_b(c).
// It returns 0 when the type is absent.
func (t *Table) TypeRate(c workload.Coschedule, b int) float64 {
	e := t.Entry(c)
	n := c.Count(b)
	if n == 0 {
		return 0
	}
	return float64(n) * e.wipc[b]
}

// InstTP returns the instantaneous throughput it(s) of coschedule c in
// WIPC units.
func (t *Table) InstTP(c workload.Coschedule) float64 { return t.Entry(c).InstTP }

// Override replaces the stored per-type WIPCs of coschedule c and updates
// the entry's derived quantities. It is used by the Section V-D fairness
// counterfactual, which redistributes rates inside a coschedule without
// changing its instantaneous throughput. The override applies to this
// table only; its rate bounds and marginal rows are re-derived to match.
func (t *Table) Override(c workload.Coschedule, typeWIPC map[int]float64) {
	e := t.Entry(c)
	ne := &Entry{Cos: e.Cos, SlotIPC: slices.Clone(e.SlotIPC), wipc: make([]float64, len(t.suite))}
	for b := range typeWIPC {
		if c.Count(b) == 0 {
			panic(fmt.Sprintf("perfdb: override type %d not in coschedule %v", b, c))
		}
	}
	for j, typ := range c {
		w, ok := typeWIPC[typ]
		if !ok {
			panic(fmt.Sprintf("perfdb: override missing type %d of coschedule %v", typ, c))
		}
		ne.wipc[typ] = w
		ne.SlotIPC[j] = w * t.Solo[typ]
		ne.InstTP += w
	}
	t.byRank[t.Rank(c)] = ne
	t.recomputeMaxWIPC()
	t.deriveRows()
}

// Clone returns a deep copy of the table; counterfactual experiments
// mutate the copy and leave the original intact.
func (t *Table) Clone() *Table {
	nt := &Table{
		name:   t.name,
		k:      t.k,
		suite:  t.suite,
		Solo:   append([]float64(nil), t.Solo...),
		byRank: make([]*Entry, len(t.byRank)),
		steps:  t.steps,
		idle:   slices.Clone(t.idle),
	}
	nt.maxWIPCBySize = make([][]float64, len(t.maxWIPCBySize))
	for s, m := range t.maxWIPCBySize {
		nt.maxWIPCBySize[s] = append([]float64(nil), m...)
	}
	for r, e := range t.byRank[1:] {
		nt.byRank[r+1] = &Entry{
			Cos:     e.Cos,
			SlotIPC: slices.Clone(e.SlotIPC),
			InstTP:  e.InstTP,
			wipc:    slices.Clone(e.wipc),
			marg:    slices.Clone(e.marg),
		}
	}
	return nt
}

// Size returns the number of stored coschedules (all sizes).
func (t *Table) Size() int { return len(t.byRank) - 1 }
