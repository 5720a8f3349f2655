package resultdb

import (
	"fmt"
	"strings"

	"symbiosched/internal/stats"
)

// The gate's rule: a benchmark fails when the change's median ns/op is
// more than GateTol above the parent's and the change was slower in at
// least GateShare of the pairs. The pair count guards the median test:
// on a shared host the medians of two runs of one binary often sit more
// than GateTol apart, while a slower change is slower pair after pair.
const (
	GateTol   = 0.10
	GateShare = 0.9
)

// GateResult is the outcome of one benchmark in a paired gate.
type GateResult struct {
	Name string
	// ParentNs and ChangeNs are the medians of each side's ns/op
	// samples, 0 for a side without the benchmark.
	ParentNs, ChangeNs float64
	// Pairs is the number of paired samples, and Slower the pairs in
	// which the change's sample exceeded the parent's; both are 0 when
	// the benchmark is missing on one side.
	Pairs, Slower int
	Failed        bool
}

// New reports whether the benchmark ran only in the change: it is
// listed, not gated.
func (r GateResult) New() bool { return r.Pairs == 0 && !r.Failed }

// Gate compares paired benchmark samples of a parent and a change run
// side by side on one machine. Each side holds every sample of its run
// in output order, so the i-th sample of a benchmark on each side
// belongs to pair i. Every benchmark of the parent is gated, in the
// order of its first sample: it fails when the change lacks it, when
// the parent's median is not positive (no ratio can be formed), or by
// the GateTol and GateShare rule. Benchmarks found only in the change
// follow as new. A benchmark whose sample counts differ between the
// sides is an error: its samples cannot be paired.
func Gate(parent, change []Bench) ([]GateResult, error) {
	pNames, pSamples := samples(parent)
	cNames, cSamples := samples(change)
	var out []GateResult
	for _, name := range pNames {
		p, c := pSamples[name], cSamples[name]
		if len(c) == 0 {
			out = append(out, GateResult{Name: name, ParentNs: stats.Quantile(p, 0.5), Failed: true})
			continue
		}
		if len(p) != len(c) {
			return nil, fmt.Errorf("resultdb: gate: %s has %d parent samples and %d change samples", name, len(p), len(c))
		}
		r := GateResult{
			Name:     name,
			ParentNs: stats.Quantile(p, 0.5),
			ChangeNs: stats.Quantile(c, 0.5),
			Pairs:    len(p),
		}
		for i := range p {
			if c[i] > p[i] {
				r.Slower++
			}
		}
		r.Failed = !(r.ParentNs > 0) ||
			r.ChangeNs > (1+GateTol)*r.ParentNs && float64(r.Slower) >= GateShare*float64(r.Pairs)
		out = append(out, r)
	}
	for _, name := range cNames {
		if _, ok := pSamples[name]; !ok {
			out = append(out, GateResult{Name: name, ChangeNs: stats.Quantile(cSamples[name], 0.5)})
		}
	}
	return out, nil
}

// samples groups bs's ns/op by benchmark name, keeping output order
// within a name, and returns the names in order of first appearance.
func samples(bs []Bench) ([]string, map[string][]float64) {
	var names []string
	by := map[string][]float64{}
	for _, b := range bs {
		if _, ok := by[b.Name]; !ok {
			names = append(names, b.Name)
		}
		by[b.Name] = append(by[b.Name], b.NsPerOp)
	}
	return names, by
}

// FormatGate renders gate results, one line per benchmark: its status
// (ok, FAIL or new), the two medians, their ratio and the pairs in
// which the change was slower. FAIL lines point CI logs straight at the
// regressing benchmark.
func FormatGate(rs []GateResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "perf gate: a benchmark fails when the change's median ns/op is more than %.0f%% above the parent's and the change was slower in at least %.0f%% of the pairs\n",
		100*GateTol, 100*GateShare)
	for _, r := range rs {
		status, ratio, pairs := "ok", "n/a", fmt.Sprintf("slower in %d/%d pairs", r.Slower, r.Pairs)
		switch {
		case r.New():
			status, pairs = "new", "not gated"
		case r.Pairs == 0:
			status, pairs = "FAIL", "missing from the change"
		case r.Failed:
			status = "FAIL"
		}
		if r.Pairs > 0 && r.ParentNs > 0 {
			ratio = fmt.Sprintf("%.2fx", r.ChangeNs/r.ParentNs)
		}
		fmt.Fprintf(&b, "  %-4s %-60s %12.1f -> %12.1f ns/op  %6s  %s\n", status, r.Name, r.ParentNs, r.ChangeNs, ratio, pairs)
	}
	return b.String()
}

// Failed reports whether any gate result failed.
func Failed(rs []GateResult) bool {
	for _, r := range rs {
		if r.Failed {
			return true
		}
	}
	return false
}
