package resultdb

import (
	"slices"
	"strings"
	"testing"
)

// paired lays out per-benchmark samples as a gate run writes them:
// pair by pair, each pair's run printing every benchmark once.
func paired(samples map[string][]float64, names ...string) []Bench {
	var out []Bench
	for i := 0; ; i++ {
		more := false
		for _, n := range names {
			if i < len(samples[n]) {
				out = append(out, Bench{Name: n, Runs: 1000, NsPerOp: samples[n][i], BytesPerOp: 0, AllocsPerOp: 0})
				more = true
			}
		}
		if !more {
			return out
		}
	}
}

// gateOne runs the gate on one benchmark's parent and change samples.
func gateOne(t *testing.T, parent, change []float64) GateResult {
	t.Helper()
	const name = "BenchmarkSchedulerSelect/MAXIT/depth=32"
	rs, err := Gate(paired(map[string][]float64{name: parent}, name), paired(map[string][]float64{name: change}, name))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Name != name {
		t.Fatalf("gate results %+v, want one for %s", rs, name)
	}
	return rs[0]
}

// parentNs is ten noisy samples of one benchmark on a shared host.
var parentNs = []float64{140, 152, 138, 171, 144, 139, 160, 143, 147, 141}

func TestGateIdenticalSamplesPass(t *testing.T) {
	r := gateOne(t, parentNs, parentNs)
	if r.Failed || r.Slower != 0 || r.Pairs != 10 || r.ParentNs != r.ChangeNs {
		t.Fatalf("identical samples: %+v", r)
	}
}

func TestGateFailsConsistentSlowdown(t *testing.T) {
	change := make([]float64, len(parentNs))
	for i, v := range parentNs {
		change[i] = 3 * v
	}
	r := gateOne(t, parentNs, change)
	if !r.Failed || r.Slower != 10 {
		t.Fatalf("3x slower in 10 of 10 pairs passed: %+v", r)
	}
	if !strings.Contains(FormatGate([]GateResult{r}), "FAIL") {
		t.Errorf("report does not mark the failure:\n%s", FormatGate([]GateResult{r}))
	}
}

// A median 12% above the parent's is not enough on its own: slower in
// only 6 of 10 pairs, it is the kind of drift two runs of one binary
// show on a shared host.
func TestGatePassesNoisySlowdown(t *testing.T) {
	parent := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	change := []float64{112, 112, 112, 112, 112, 112, 90, 90, 90, 90}
	r := gateOne(t, parent, change)
	if r.Failed || r.Slower != 6 || r.ChangeNs/r.ParentNs != 1.12 {
		t.Fatalf("12%% median, 6 of 10 pairs slower: %+v", r)
	}
	// The same median slower in 9 of 10 pairs fails.
	change = []float64{112, 112, 112, 112, 112, 112, 112, 112, 112, 90}
	if r := gateOne(t, parent, change); !r.Failed || r.Slower != 9 {
		t.Fatalf("12%% median, 9 of 10 pairs slower: %+v", r)
	}
	// At perf/gate.sh's 20 pairs the rule needs 18 of them.
	parent = slices.Repeat([]float64{100}, 20)
	for slower, want := range map[int]bool{17: false, 18: true} {
		change = append(slices.Repeat([]float64{112}, slower), slices.Repeat([]float64{90}, 20-slower)...)
		if r := gateOne(t, parent, change); r.Failed != want || r.Slower != slower || r.Pairs != 20 {
			t.Fatalf("12%% median, %d of 20 pairs slower: %+v, want failed=%v", slower, r, want)
		}
	}
}

// Every parent benchmark is gated: one missing from the change fails,
// and one found only in the change is listed as new and not gated.
func TestGateMissingAndNewBenchmarks(t *testing.T) {
	parent := paired(map[string][]float64{"BenchmarkA": {1, 2}, "BenchmarkB": {3, 4}}, "BenchmarkA", "BenchmarkB")
	change := paired(map[string][]float64{"BenchmarkA": {1, 2}, "BenchmarkC": {5, 6}}, "BenchmarkA", "BenchmarkC")
	rs, err := Gate(parent, change)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 || rs[0].Name != "BenchmarkA" || rs[1].Name != "BenchmarkB" || rs[2].Name != "BenchmarkC" {
		t.Fatalf("results %+v, want A, B, C in that order", rs)
	}
	if rs[0].Failed || !rs[1].Failed || rs[2].Failed || !rs[2].New() || rs[1].New() {
		t.Fatalf("results %+v: want A ok, B failed as missing, C new", rs)
	}
	if !Failed(rs) {
		t.Fatal("a missing benchmark must fail the gate")
	}
	report := FormatGate(rs)
	for _, want := range []string{"missing from the change", "new ", "not gated"} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
}

// A parent median of zero leaves no ratio to form, so the benchmark
// fails, even when the change also reads zero.
func TestGateFailsZeroParentMedian(t *testing.T) {
	zero := make([]float64, 10)
	if r := gateOne(t, zero, zero); !r.Failed {
		t.Fatalf("zero on both sides passed: %+v", r)
	}
	if r := gateOne(t, zero, parentNs); !r.Failed {
		t.Fatalf("zero parent median passed: %+v", r)
	}
}

func TestGateUnequalSampleCounts(t *testing.T) {
	const name = "BenchmarkX"
	parent := paired(map[string][]float64{name: {1, 2, 3}}, name)
	change := paired(map[string][]float64{name: {1, 2}}, name)
	if rs, err := Gate(parent, change); err == nil {
		t.Fatalf("3 parent against 2 change samples: %+v, want an error", rs)
	}
}
