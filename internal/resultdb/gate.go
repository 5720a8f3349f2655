package resultdb

import (
	"fmt"
	"math"
	"strings"
)

// CalibrationBench is the name of the fixed pure-CPU benchmark
// (internal/sched's BenchmarkCalibration) both sides of a perf gate are
// expected to carry. Normalising every hot-path ns/op by the same
// record's calibration ns/op cancels machine speed: the gate then
// compares work-per-calibration-unit, so a baseline recorded on a fast
// workstation still gates a slower CI runner at the intended tolerance.
const CalibrationBench = "BenchmarkCalibration"

// GateResult is the outcome of one benchmark comparison within a gate.
type GateResult struct {
	Name string
	// BaseNs and CurNs are the raw ns/op on each side; Drift is the
	// calibration-normalised relative change (positive = regression).
	BaseNs, CurNs float64
	Drift         float64
	Failed        bool
}

// Gate compares the named hot-path benchmarks of cur against base,
// failing any whose calibration-normalised ns/op drifted up by more
// than tol (e.g. 0.10 for the CI 10% gate). Benchmarks named in names
// but missing on either side fail the gate outright — silently dropping
// a pinned benchmark must not pass. When both records carry
// CalibrationBench, drifts are normalised by the calibration ratio;
// otherwise raw ns/op ratios are compared (same-machine comparisons).
// Improvements (negative drift) never fail. Corrupt timings do: a
// pinned benchmark whose ns/op is not a finite positive number on
// either side fails, as does any drift that is not a finite number at
// or below tol, and when both records carry CalibrationBench but either
// calibration is not a finite positive number, every pinned benchmark
// fails — the drifts cannot be normalised, and comparing raw ns/op
// across machines could hide a regression.
func Gate(base, cur *Record, names []string, tol float64) ([]GateResult, error) {
	bb := map[string]Bench{}
	for _, b := range base.Benches {
		bb[b.Name] = b
	}
	cb := map[string]Bench{}
	for _, b := range cur.Benches {
		cb[b.Name] = b
	}
	scale, calOK := 1.0, true
	if bc, ok1 := bb[CalibrationBench]; ok1 {
		if cc, ok2 := cb[CalibrationBench]; ok2 {
			// cur ns are worth (base_cal / cur_cal) base ns.
			scale = bc.NsPerOp / cc.NsPerOp
			calOK = validNs(bc.NsPerOp) && validNs(cc.NsPerOp)
		}
	}
	var out []GateResult
	for _, name := range names {
		b, okB := bb[name]
		c, okC := cb[name]
		if !okB || !okC {
			out = append(out, GateResult{Name: name, Drift: math.Inf(1), Failed: true})
			continue
		}
		drift := (c.NsPerOp*scale)/b.NsPerOp - 1
		ok := calOK && validNs(b.NsPerOp) && validNs(c.NsPerOp) && drift <= tol && !math.IsInf(drift, 0)
		out = append(out, GateResult{
			Name: name, BaseNs: b.NsPerOp, CurNs: c.NsPerOp,
			Drift: drift, Failed: !ok,
		})
	}
	return out, nil
}

// validNs reports whether ns is a usable timing: finite and positive.
func validNs(ns float64) bool { return ns > 0 && !math.IsInf(ns, 1) }

// FormatGate renders gate results; failed lines carry a FAIL marker so
// CI logs point straight at the regressing benchmark.
func FormatGate(rs []GateResult, tol float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "perf gate (tolerance %+.0f%%, calibration-normalised):\n", 100*tol)
	for _, r := range rs {
		status := "ok"
		if r.Failed {
			status = "FAIL"
		}
		if math.IsInf(r.Drift, 1) && r.BaseNs == 0 {
			fmt.Fprintf(&b, "  %-4s %-50s missing on one side\n", status, r.Name)
			continue
		}
		fmt.Fprintf(&b, "  %-4s %-50s %10.1f -> %10.1f ns/op (%+.1f%% normalised)\n",
			status, r.Name, r.BaseNs, r.CurNs, 100*r.Drift)
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
