// Package metrics is the simulator's instrumentation core: counters,
// time-weighted gauges, fixed-log-bucket histograms and bounded
// decimating series, registered on a Collector and exported as
// deterministic, ordered Snapshots.
//
// The package is built around two contracts the hot layers demand:
//
//   - Zero cost when disabled. Every instrumented component holds nil
//     instrument pointers by default; all instrument methods are
//     nil-receiver no-ops, and the hottest loops batch their updates
//     behind a single nil guard. The 0 allocs/op pins on Select,
//     Server.Advance/Reschedule and the dispatcher Picks hold with
//     metrics off, and enabling them never changes a simulation result —
//     instruments only observe, they are never read back by decisions.
//
//   - Deterministic snapshots. A Snapshot's rows are ordered by
//     (metric name, field order), values are serialised with the
//     repo-wide canonical float format, and Merge folds snapshots
//     numerically in call order — so the merged metrics of a parallel
//     sweep, folded in enumeration order, are byte-identical at any
//     parallelism level (the same argument internal/runner makes for
//     results).
//
// Instruments are NOT internally synchronised. A simulation run owns one
// Collector: the farm engine steps its whole fleet on one goroutine, so
// every server, scheduler and estimator of the run shares one instrument
// set on it, and the shared instruments add their terms in the engine's
// deterministic event order. Runs that execute in parallel (replications,
// grid cells) each own their Collector, and their snapshots are merged in
// enumeration order.
package metrics

import (
	"encoding/csv"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"symbiosched/internal/numeric"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	name string
	n    uint64
}

// Inc adds one. A nil counter (metrics disabled) is a no-op.
func (c *Counter) Inc() {
	if c != nil {
		c.n++
	}
}

// Add adds n events. A nil counter is a no-op.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.n += n
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n
}

// Gauge is a time-weighted value: Observe(v, dt) integrates v over an
// interval of length dt, so Mean is the time average — the right
// semantics for quantities that are piecewise constant between events
// (queue length, busy contexts). The integral and total weight
// accumulate in Kahan sums, keeping long runs exact to the same standard
// as the simulators' own integrals.
type Gauge struct {
	name     string
	integral numeric.KahanSum
	weight   numeric.KahanSum
	last     float64
}

// Observe integrates value v over weight (duration) dt. A nil gauge is a
// no-op; non-positive weights are ignored (zero-length intervals carry
// no information and would only add float noise).
func (g *Gauge) Observe(v, dt float64) {
	if g == nil || dt <= 0 {
		return
	}
	g.integral.Add(v * dt)
	g.weight.Add(dt)
	g.last = v
}

// Mean returns the time-weighted average (0 before any observation).
func (g *Gauge) Mean() float64 {
	if g == nil || g.weight.Value() == 0 {
		return 0
	}
	return g.integral.Value() / g.weight.Value()
}

// Integral returns the accumulated value*dt integral.
func (g *Gauge) Integral() float64 {
	if g == nil {
		return 0
	}
	return g.integral.Value()
}

// Histogram is a fixed-log-bucket (base-2) weighted histogram: bucket e
// holds the total weight of observations with value in (2^(e-1), 2^e].
// The bucket index comes from math.Frexp — pure exponent extraction, no
// libm — so bucketing is exact and platform-independent. The bucket
// range is fixed at construction; out-of-range values clamp to the end
// buckets, and non-positive values land in the dedicated zero bucket.
type Histogram struct {
	name   string
	minExp int // bucket 0 covers (0, 2^minExp]
	w      []float64
	zero   float64 // weight of values <= 0
	count  uint64  // observations (not weight)
}

// histExp returns the bucket exponent e with v in (2^(e-1), 2^e].
func histExp(v float64) int {
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	if frac == 0.5 {
		return exp - 1 // exact power of two belongs to the lower bucket
	}
	return exp
}

// Observe adds weight w at value v. A nil histogram or non-positive
// weight is a no-op.
func (h *Histogram) Observe(v, w float64) {
	if h == nil || w <= 0 {
		return
	}
	h.count++
	if v <= 0 {
		h.zero += w
		return
	}
	b := histExp(v) - h.minExp
	if b < 0 {
		b = 0
	}
	if b >= len(h.w) {
		b = len(h.w) - 1
	}
	h.w[b] += w
}

// Series is a bounded time series with deterministic decimation: Append
// records every stride-th sample; when the buffer fills, the stride
// doubles and every second retained sample is dropped. The retained
// set is a pure function of the append sequence, so series recorded on
// deterministic event streams snapshot byte-identically however the
// simulation was executed.
type Series struct {
	name   string
	t, v   []float64
	limit  int
	stride int
	seen   int // samples seen since the last retained one
}

// Append records sample (t, v) subject to decimation. A nil series is a
// no-op.
func (s *Series) Append(t, v float64) {
	if s == nil {
		return
	}
	if s.seen%s.stride == 0 {
		if len(s.t) == s.limit {
			// Full: keep every second sample and double the stride.
			k := 0
			for i := 0; i < len(s.t); i += 2 {
				s.t[k], s.v[k] = s.t[i], s.v[i]
				k++
			}
			s.t, s.v = s.t[:k], s.v[:k]
			s.stride *= 2
			// The dropped tail shifts the decimation phase; restart the
			// stride count so the next retained sample is stride away
			// from the last kept one.
			s.seen = 0
			if s.seen%s.stride == 0 {
				s.t = append(s.t, t)
				s.v = append(s.v, v)
			}
			s.seen++
			return
		}
		s.t = append(s.t, t)
		s.v = append(s.v, v)
	}
	s.seen++
}

// Len returns the number of retained samples.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.t)
}

// Collector registers named instruments and snapshots them. A nil
// Collector is the disabled state: every constructor returns a nil
// instrument, whose methods are no-ops.
type Collector struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	series   map[string]*Series
	order    []string
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		series:   map[string]*Series{},
	}
}

// register panics on a cross-kind name collision: metric names are
// compile-time constants in the instrumented layers, so a duplicate is a
// bug, not data. (Same-kind lookups return the existing instrument
// before reaching here.)
func (c *Collector) register(name string) {
	_, a := c.counters[name]
	_, b := c.gauges[name]
	_, h := c.hists[name]
	_, s := c.series[name]
	if a || b || h || s {
		panic(fmt.Sprintf("metrics: duplicate instrument %q", name))
	}
	c.order = append(c.order, name)
}

// Counter returns the named counter, creating it on first use. A nil
// collector returns a nil counter.
func (c *Collector) Counter(name string) *Counter {
	if c == nil {
		return nil
	}
	if ct, ok := c.counters[name]; ok {
		return ct
	}
	c.register(name)
	ct := &Counter{name: name}
	c.counters[name] = ct
	return ct
}

// Gauge returns the named time-weighted gauge, creating it on first use.
func (c *Collector) Gauge(name string) *Gauge {
	if c == nil {
		return nil
	}
	if g, ok := c.gauges[name]; ok {
		return g
	}
	c.register(name)
	g := &Gauge{name: name}
	c.gauges[name] = g
	return g
}

// Histogram returns the named log2-bucket histogram over buckets
// (0, 2^minExp], ..., (2^(maxExp-1), 2^maxExp], creating it on first
// use (later calls ignore the exponent range).
func (c *Collector) Histogram(name string, minExp, maxExp int) *Histogram {
	if c == nil {
		return nil
	}
	if h, ok := c.hists[name]; ok {
		return h
	}
	if maxExp <= minExp {
		panic(fmt.Sprintf("metrics: histogram %q has empty exponent range [%d, %d]", name, minExp, maxExp))
	}
	c.register(name)
	h := &Histogram{name: name, minExp: minExp, w: make([]float64, maxExp-minExp+1)}
	c.hists[name] = h
	return h
}

// Series returns the named bounded series with the given retention
// limit, creating it on first use.
func (c *Collector) Series(name string, limit int) *Series {
	if c == nil {
		return nil
	}
	if s, ok := c.series[name]; ok {
		return s
	}
	if limit < 2 {
		limit = 2
	}
	c.register(name)
	s := &Series{name: name, limit: limit, stride: 1}
	c.series[name] = s
	return s
}

// Row is one snapshot line: a (metric, field) coordinate and its value.
// Kind is "counter", "gauge", "histogram" or "series"; ord orders fields
// within one metric (registration/bucket/sample order), keeping the
// serialised form stable and readable.
type Row struct {
	Metric string
	Kind   string
	Field  string
	Value  float64
	ord    int
}

// FormatValue renders a row's value canonically: counters as integers,
// everything else with the repo-wide 'g'/10 float format.
func (r Row) FormatValue() string {
	if r.Kind == "counter" {
		return strconv.FormatUint(uint64(r.Value), 10)
	}
	return strconv.FormatFloat(r.Value, 'g', 10, 64)
}

// Snapshot is an ordered, immutable export of a collector's state.
type Snapshot struct {
	Rows []Row
}

// bucketLabel names histogram bucket upper bounds: le_<2^exp> with the
// canonical float format (so "le_0.25", "le_8", "le_1024").
func bucketLabel(exp int) string {
	return "le_" + strconv.FormatFloat(math.Ldexp(1, exp), 'g', 10, 64)
}

// Snapshot exports every instrument as ordered rows: metrics sorted by
// name, fields in their natural order (a counter's single count, a
// gauge's integral/weight/mean, a histogram's zero + ascending buckets +
// count, a series' interleaved time/value samples). Zero-weight
// histogram buckets are elided — the bucket set is still deterministic,
// because it depends only on the observed values. A nil collector
// yields an empty snapshot.
func (c *Collector) Snapshot() *Snapshot {
	s := &Snapshot{}
	if c == nil {
		return s
	}
	names := append([]string(nil), c.order...)
	sort.Strings(names)
	for _, name := range names {
		switch {
		case c.counters[name] != nil:
			ct := c.counters[name]
			s.Rows = append(s.Rows, Row{Metric: name, Kind: "counter", Field: "count", Value: float64(ct.n)})
		case c.gauges[name] != nil:
			g := c.gauges[name]
			s.Rows = append(s.Rows,
				Row{Metric: name, Kind: "gauge", Field: "integral", Value: g.integral.Value(), ord: 0},
				Row{Metric: name, Kind: "gauge", Field: "weight", Value: g.weight.Value(), ord: 1},
				Row{Metric: name, Kind: "gauge", Field: "mean", Value: g.Mean(), ord: 2},
			)
		case c.hists[name] != nil:
			h := c.hists[name]
			ord := 0
			if h.zero > 0 {
				s.Rows = append(s.Rows, Row{Metric: name, Kind: "histogram", Field: "le_0", Value: h.zero, ord: ord})
			}
			ord++
			for b, w := range h.w {
				if w > 0 {
					s.Rows = append(s.Rows, Row{Metric: name, Kind: "histogram",
						Field: bucketLabel(h.minExp + b), Value: w, ord: ord + b})
				}
			}
			s.Rows = append(s.Rows, Row{Metric: name, Kind: "histogram",
				Field: "count", Value: float64(h.count), ord: ord + len(h.w)})
		case c.series[name] != nil:
			se := c.series[name]
			for i := range se.t {
				s.Rows = append(s.Rows,
					Row{Metric: name, Kind: "series", Field: fmt.Sprintf("t%04d", i), Value: se.t[i], ord: 2 * i},
					Row{Metric: name, Kind: "series", Field: fmt.Sprintf("v%04d", i), Value: se.v[i], ord: 2*i + 1},
				)
			}
		}
	}
	return s
}

// Merge folds other into s numerically: rows matching on (metric, kind,
// field) add their values; unmatched rows are inserted. The result is
// re-sorted by (metric, ord, field), so merging any permutation-free
// sequence of snapshots in a fixed order yields byte-identical CSV —
// sweeps merge their replications' and grid cells' snapshots in
// enumeration order for exactly this reason. Counter sums stay exact
// (integers below 2^53); float sums accumulate in call order.
func (s *Snapshot) Merge(other *Snapshot) {
	if other == nil {
		return
	}
	type key struct{ metric, kind, field string }
	at := make(map[key]int, len(s.Rows))
	for i, r := range s.Rows {
		at[key{r.Metric, r.Kind, r.Field}] = i
	}
	for _, r := range other.Rows {
		k := key{r.Metric, r.Kind, r.Field}
		if i, ok := at[k]; ok {
			s.Rows[i].Value += r.Value
		} else {
			at[k] = len(s.Rows)
			s.Rows = append(s.Rows, r)
		}
	}
	sort.SliceStable(s.Rows, func(i, j int) bool {
		a, b := s.Rows[i], s.Rows[j]
		if a.Metric != b.Metric {
			return a.Metric < b.Metric
		}
		if a.ord != b.ord {
			return a.ord < b.ord
		}
		return a.Field < b.Field
	})
	// Merged gauge means are stale (integral and weight were summed);
	// recompute them from their siblings so the snapshot stays
	// self-consistent.
	for i := range s.Rows {
		if s.Rows[i].Kind == "gauge" && s.Rows[i].Field == "mean" {
			integral, weight := 0.0, 0.0
			for j := i - 2; j < i; j++ {
				if j >= 0 && s.Rows[j].Metric == s.Rows[i].Metric {
					switch s.Rows[j].Field {
					case "integral":
						integral = s.Rows[j].Value
					case "weight":
						weight = s.Rows[j].Value
					}
				}
			}
			if weight != 0 {
				s.Rows[i].Value = integral / weight
			}
		}
	}
}

// CSV serialises the snapshot as metric,kind,field,value rows (RFC 4180,
// one header line) — the byte form the determinism tests pin.
func (s *Snapshot) CSV() []byte {
	var b strings.Builder
	w := csv.NewWriter(&b)
	_ = w.Write([]string{"metric", "kind", "field", "value"})
	for _, r := range s.Rows {
		_ = w.Write([]string{r.Metric, r.Kind, r.Field, r.FormatValue()})
	}
	w.Flush()
	return []byte(b.String())
}

// Get returns the value at (metric, field), with ok reporting presence.
func (s *Snapshot) Get(metric, field string) (float64, bool) {
	for _, r := range s.Rows {
		if r.Metric == metric && r.Field == field {
			return r.Value, true
		}
	}
	return 0, false
}
