package resultdb

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ParseBench parses `go test -bench` output into Bench entries, in
// input order. It reads the standard line shape
//
//	BenchmarkName-8    1234    143.1 ns/op    0 B/op    0 allocs/op
//
// tolerating absent B/op / allocs/op columns (recorded as -1) and
// ignoring everything that is not a benchmark line (headers, PASS/ok
// trailers, sub-benchmark logs). The trailing -<GOMAXPROCS> suffix is
// stripped so records compare across machines with different core
// counts. A benchmark line whose run count, ns/op, B/op or allocs/op is
// not a finite, non-negative number (NaN, ±Inf, a negative count or
// time) is corrupt output: ParseBench returns an error naming the line
// rather than recording it. Other columns — custom b.ReportMetric units,
// which may well be signed — are not recorded, so their values are not
// checked.
func ParseBench(r io.Reader) ([]Bench, error) {
	var out []Bench
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for line := 1; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		runs, err := strconv.Atoi(f[1])
		if err != nil {
			continue
		}
		if runs < 0 {
			return nil, fmt.Errorf("resultdb: parse bench: line %d: negative run count %d", line, runs)
		}
		b := Bench{Name: trimProcSuffix(f[0]), Runs: runs, BytesPerOp: -1, AllocsPerOp: -1}
		ok := false
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			var dst *float64
			switch f[i+1] {
			case "ns/op":
				dst, ok = &b.NsPerOp, true
			case "B/op":
				dst = &b.BytesPerOp
			case "allocs/op":
				dst = &b.AllocsPerOp
			default:
				continue
			}
			if !(v >= 0) || math.IsInf(v, 1) {
				return nil, fmt.Errorf("resultdb: parse bench: line %d: %s %s is not a finite non-negative value", line, f[i], f[i+1])
			}
			*dst = v
		}
		if ok {
			out = append(out, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("resultdb: parse bench: %w", err)
	}
	return out, nil
}

// trimProcSuffix drops a trailing -<digits> GOMAXPROCS marker from a
// benchmark name; sub-benchmark slashes are left intact.
func trimProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
