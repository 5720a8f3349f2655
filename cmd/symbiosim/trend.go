// This file implements `symbiosim trend`: the trajectory view over a
// resultdb store. It walks the store's records for one scenario key
// across commits (oldest to newest) and renders every recorded numeric
// metric as a series — a text sparkline per series on stdout, and
// optionally the full long-format table as CSV.

package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"symbiosched/internal/resultdb"
	"symbiosched/internal/scenario"
)

// sparkLevels are the eight block glyphs a sparkline quantises into;
// sparkGap marks records where the series has no point.
const (
	sparkLevels = "▁▂▃▄▅▆▇█"
	sparkGap    = "·"
)

// sparkline renders vs (NaN = missing) as block glyphs, min-max
// normalised over the present points. A flat series renders mid-level:
// the interesting signal is change, not absolute height.
func sparkline(vs []float64) string {
	levels := []rune(sparkLevels)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vs {
		if math.IsNaN(v) {
			continue
		}
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	var b strings.Builder
	for _, v := range vs {
		switch {
		case math.IsNaN(v):
			b.WriteString(sparkGap)
		case lo == hi:
			b.WriteRune(levels[3])
		default:
			b.WriteRune(levels[int((v-lo)/(hi-lo)*7.999)])
		}
	}
	return b.String()
}

// trendPoint is one record's position on the walked trajectory.
type trendPoint struct {
	commit string
	when   string
}

// trendSeries is one named value trajectory over the walked records;
// vals[i] belongs to the i-th (oldest-first) record, NaN when absent.
type trendSeries struct {
	name string
	vals []float64
}

// runTrendCmd implements `symbiosim trend`. Exit 0 on a rendered trend,
// 1 when the store holds no matching records, 2 on usage errors.
func runTrendCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("symbiosim trend", flag.ContinueOnError)
	db := fs.String("db", defaultDB, "record store directory")
	scen := fs.String("scenario", "", "scenario key to walk, a -record scenario name (required)")
	metricF := fs.String("metric", "", "only metrics whose name contains this substring")
	last := fs.Int("last", 0, "walk only the most recent N records (0 = all)")
	csvDir := fs.String("csv", "", "also write the trend table as trend_<scenario>.csv into this directory")
	if ok, code := parseOrUsage(fs, args, "symbiosim trend [-db dir] -scenario name [-metric substr] [-last N] [-csv dir]", stderr); !ok {
		return code
	}
	if fs.NArg() != 0 || *scen == "" {
		fs.Usage()
		return 2
	}
	if *last < 0 {
		fmt.Fprintf(stderr, "symbiosim: -last wants a count >= 0, got %d\n", *last)
		return 2
	}
	st, ok := openStore(*db, stderr)
	if !ok {
		return 2
	}
	names, err := st.List()
	if err != nil {
		fmt.Fprintf(stderr, "symbiosim: %v\n", err)
		return 1
	}
	// List is newest first; collect the scenario's records and reverse
	// into commit order (oldest first), bounding at -last newest.
	var points []trendPoint
	var recs []*resultdb.Record
	for _, n := range names {
		rec, err := st.Get(n)
		if err != nil {
			if errors.Is(err, resultdb.ErrCorrupt) {
				fmt.Fprintf(stderr, "symbiosim: warning: skipping %v\n", err)
				continue
			}
			fmt.Fprintf(stderr, "symbiosim: %v\n", err)
			return 1
		}
		if rec.Scenario != *scen {
			continue
		}
		points = append(points, trendPoint{commit: rec.Commit, when: rec.When})
		recs = append(recs, rec)
		if *last > 0 && len(recs) == *last {
			break
		}
	}
	if len(recs) == 0 {
		fmt.Fprintf(stderr, "symbiosim: no records for scenario %q in %s\n", *scen, *db)
		return 1
	}
	for i, j := 0, len(recs)-1; i < j; i, j = i+1, j-1 {
		points[i], points[j] = points[j], points[i]
		recs[i], recs[j] = recs[j], recs[i]
	}

	series := trendCollect(recs, *metricF)
	if len(series) == 0 {
		fmt.Fprintf(stderr, "symbiosim: records match but no numeric metric passed the -metric filter\n")
		return 1
	}

	fmt.Fprintf(stdout, "trend: scenario %s, %d records (oldest to newest)\n", *scen, len(recs))
	for i, p := range points {
		fmt.Fprintf(stdout, "  %2d  %-8s  %s\n", i, short(p.commit, 8), p.when)
	}
	nameW := 0
	for _, s := range series {
		if len(s.name) > nameW {
			nameW = len(s.name)
		}
	}
	for _, s := range series {
		first, last := firstLast(s.vals)
		delta := "     n/a"
		if !math.IsNaN(first) && !math.IsNaN(last) && first != 0 {
			delta = fmt.Sprintf("%+7.1f%%", 100*(last-first)/first)
		}
		fmt.Fprintf(stdout, "%-*s  %s  %s  %s -> %s\n",
			nameW, s.name, sparkline(s.vals), delta, trendNum(first), trendNum(last))
	}

	if *csvDir != "" {
		tbl := scenario.NewTable("trend_"+short(*scen, 32),
			scenario.IntCol("seq"), scenario.StrCol("commit"), scenario.StrCol("when"),
			scenario.StrCol("series"), scenario.FloatCol("value"))
		for _, s := range series {
			for i, v := range s.vals {
				if math.IsNaN(v) {
					continue
				}
				tbl.Add(i, short(points[i].commit, 8), points[i].when, s.name, v)
			}
		}
		if err := tbl.WriteFile(*csvDir); err != nil {
			fmt.Fprintf(stderr, "symbiosim: csv: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trend table written to %s/%s.csv\n", *csvDir, tbl.Name)
	}
	return 0
}

// trendCollect builds the series over the oldest-first records: every
// metric row with a numeric value (as "metric <Metric>/<Field>"), in
// first-seen order.
func trendCollect(recs []*resultdb.Record, metricF string) []trendSeries {
	idx := map[string]int{}
	var series []trendSeries
	for i, rec := range recs {
		for _, m := range rec.Metrics {
			name := m.Metric + "/" + m.Field
			if metricF != "" && !strings.Contains(name, metricF) {
				continue
			}
			v, err := strconv.ParseFloat(m.Value, 64)
			if err != nil {
				continue // non-numeric metric values carry no trajectory
			}
			si, ok := idx[name]
			if !ok {
				si = len(series)
				idx[name] = si
				vals := make([]float64, len(recs))
				for k := range vals {
					vals[k] = math.NaN()
				}
				series = append(series, trendSeries{name: "metric " + name, vals: vals})
			}
			series[si].vals[i] = v
		}
	}
	return series
}

// firstLast returns the first and last non-NaN values of vs (NaN when
// the series is entirely empty).
func firstLast(vs []float64) (first, last float64) {
	first, last = math.NaN(), math.NaN()
	for _, v := range vs {
		if math.IsNaN(v) {
			continue
		}
		if math.IsNaN(first) {
			first = v
		}
		last = v
	}
	return first, last
}

// short truncates a token for display; "none" stands in for an empty
// one so table columns never collapse.
func short(s string, n int) string {
	if s == "" {
		return "none"
	}
	if len(s) > n {
		return s[:n]
	}
	return s
}

// trendNum renders a series endpoint compactly (4 significant digits).
func trendNum(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}
