package resultdb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Delta is one difference between two records. Where identifies the
// datum ("table/cell", "metric"); Old and New are the two values; Rel
// is the relative change (new/old - 1, ±Inf when only one side has the
// datum and NaN comparisons never reach here).
type Delta struct {
	Kind  string // "table", "metric", "presence"
	Where string
	Old   string
	New   string
	Rel   float64
}

// DiffOptions tunes the comparison.
type DiffOptions struct {
	// Tol is the relative tolerance below which numeric differences are
	// not reported (default 0: report every byte difference).
	Tol float64
}

// relDelta compares two canonical cell strings: numerically when both
// parse as floats (relative to the old magnitude), else byte equality.
// The bool reports whether they differ beyond tol.
func relDelta(oldS, newS string, tol float64) (float64, bool) {
	if oldS == newS {
		return 0, false
	}
	ov, oerr := strconv.ParseFloat(oldS, 64)
	nv, nerr := strconv.ParseFloat(newS, 64)
	if oerr != nil || nerr != nil {
		return math.NaN(), true // non-numeric and unequal
	}
	if ov == nv {
		return 0, false
	}
	if ov == 0 {
		return math.Inf(sign(nv)), true
	}
	rel := nv/ov - 1
	return rel, math.Abs(rel) > tol
}

func sign(v float64) int {
	if v < 0 {
		return -1
	}
	return 1
}

// Diff compares two records and returns the deltas beyond tolerance, in
// a fixed order (tables in a's order, then metrics), so the report is
// deterministic. Identical records yield no deltas at any tolerance.
func Diff(a, b *Record, opt DiffOptions) []Delta {
	var out []Delta
	present := func(kind, where, oldS, newS string) {
		out = append(out, Delta{Kind: "presence", Where: kind + " " + where, Old: oldS, New: newS, Rel: math.NaN()})
	}

	bt := map[string]*Table{}
	for i := range b.Tables {
		bt[b.Tables[i].Name] = &b.Tables[i]
	}
	for i := range a.Tables {
		ta := &a.Tables[i]
		tb, ok := bt[ta.Name]
		if !ok {
			present("table", ta.Name, "present", "missing")
			continue
		}
		delete(bt, ta.Name)
		if strings.Join(ta.Header, ",") != strings.Join(tb.Header, ",") {
			present("table header", ta.Name, strings.Join(ta.Header, ","), strings.Join(tb.Header, ","))
			continue
		}
		if len(ta.Rows) != len(tb.Rows) {
			present("table rows", ta.Name, fmt.Sprint(len(ta.Rows)), fmt.Sprint(len(tb.Rows)))
			continue
		}
		for ri := range ta.Rows {
			for ci := range ta.Rows[ri] {
				if ci >= len(tb.Rows[ri]) {
					break
				}
				if rel, differs := relDelta(ta.Rows[ri][ci], tb.Rows[ri][ci], opt.Tol); differs {
					col := "?"
					if ci < len(ta.Header) {
						col = ta.Header[ci]
					}
					out = append(out, Delta{
						Kind:  "table",
						Where: fmt.Sprintf("%s[%d].%s", ta.Name, ri, col),
						Old:   ta.Rows[ri][ci], New: tb.Rows[ri][ci], Rel: rel,
					})
				}
			}
		}
	}
	for name := range bt {
		present("table", name, "missing", "present")
	}

	bm := map[string]string{}
	for _, m := range b.Metrics {
		bm[m.Metric+"\x00"+m.Field] = m.Value
	}
	for _, m := range a.Metrics {
		k := m.Metric + "\x00" + m.Field
		nv, ok := bm[k]
		if !ok {
			present("metric", m.Metric+"."+m.Field, m.Value, "missing")
			continue
		}
		delete(bm, k)
		if rel, differs := relDelta(m.Value, nv, opt.Tol); differs {
			out = append(out, Delta{Kind: "metric", Where: m.Metric + "." + m.Field, Old: m.Value, New: nv, Rel: rel})
		}
	}
	for _, m := range b.Metrics {
		if _, ok := bm[m.Metric+"\x00"+m.Field]; ok {
			present("metric", m.Metric+"."+m.Field, "missing", m.Value)
		}
	}

	return out
}

// FormatDeltas renders a delta list for humans; an empty list renders as
// the explicit zero-deltas line so scripts can grep for it.
func FormatDeltas(ds []Delta) string {
	if len(ds) == 0 {
		return "no deltas\n"
	}
	var b strings.Builder
	for _, d := range ds {
		if math.IsNaN(d.Rel) {
			fmt.Fprintf(&b, "%-8s %-40s %s -> %s\n", d.Kind, d.Where, d.Old, d.New)
			continue
		}
		fmt.Fprintf(&b, "%-8s %-40s %s -> %s (%+.2f%%)\n", d.Kind, d.Where, d.Old, d.New, 100*d.Rel)
	}
	return b.String()
}
