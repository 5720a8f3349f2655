package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// Regenerate the report golden with:
//
//	go test ./cmd/farmsim -run TestRunReportGolden -update
var update = flag.Bool("update", false, "rewrite the report golden file")

// TestRunReportGolden pins farmsim's whole stdout for one small faulted
// grid with -quantiles: the standard panels, the fault panels and the
// quantile panels, none of which any scenario's report text carries.
func TestRunReportGolden(t *testing.T) {
	golden := filepath.Join("testdata", "report.txt")
	var out, errb strings.Builder
	code := run(context.Background(), []string{
		"-servers", "2", "-jobs", "600", "-reps", "2",
		"-dispatchers", "rr,li", "-loads", "0.5,0.8", "-quantiles", "-mtbf", "30",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errb.String())
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if out.String() != string(want) {
		t.Errorf("report differs from %s (regenerate with -update if the change is intended)\n--- got ---\n%s\n--- want ---\n%s",
			golden, out.String(), want)
	}
}

// TestRunTinyFarm is the end-to-end smoke run: a 2-server farm, one
// dispatcher pair, one load, tiny job counts.
func TestRunTinyFarm(t *testing.T) {
	dir := t.TempDir()
	var out, errb strings.Builder
	code := run(context.Background(), []string{
		"-servers", "2", "-jobs", "800", "-reps", "2",
		"-dispatchers", "rr,li", "-loads", "0.8",
		"-parallel", "2", "-csv", dir,
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{"Server farm (2 x smt / FCFS)", "rr", "li", "load=0.80"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "farm.csv"))
	if err != nil {
		t.Fatalf("farm.csv: %v", err)
	}
	if lines := strings.Split(strings.TrimSpace(string(data)), "\n"); len(lines) != 3 {
		t.Errorf("farm.csv has %d lines, want header + 2 cells:\n%s", len(lines), data)
	}
}

// TestRunOnlineEstimator smoke-runs the learning path: -estimator swaps
// the oracle table for an online learner and -quantiles appends the
// P50/P99 panels.
func TestRunOnlineEstimator(t *testing.T) {
	var out, errb strings.Builder
	code := run(context.Background(), []string{
		"-servers", "2", "-jobs", "600", "-reps", "1", "-sched", "MAXIT",
		"-estimator", "sampler", "-quantiles",
		"-dispatchers", "li", "-loads", "0.8",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{"@ sampler", "p50 turnaround", "p99 turnaround"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if code := run(context.Background(), []string{"-estimator", "psychic", "-jobs", "300", "-reps", "1", "-loads", "0.5"}, &out, &errb); code != 2 {
		t.Errorf("unknown estimator: run = %d, want 2", code)
	}
}

// TestRunDeterministicAcrossParallel pins the acceptance criterion at
// the CLI level: the full farmsim output is byte-identical at
// -parallel 1 and -parallel NumCPU (or 8 if larger).
func TestRunDeterministicAcrossParallel(t *testing.T) {
	wide := runtime.NumCPU()
	if wide < 8 {
		wide = 8
	}
	var outs []string
	for _, p := range []int{1, wide} {
		var out, errb strings.Builder
		code := run(context.Background(), []string{
			"-servers", "2", "-jobs", "600", "-reps", "4",
			"-dispatchers", "jsq,li", "-loads", "0.5,0.9",
			"-parallel", strconv.Itoa(p),
		}, &out, &errb)
		if code != 0 {
			t.Fatalf("-parallel %d: run = %d, stderr: %s", p, code, errb.String())
		}
		outs = append(outs, out.String())
	}
	if outs[0] != outs[1] {
		t.Errorf("output differs between -parallel 1 and -parallel %d:\n--- p=1 ---\n%s\n--- p=%d ---\n%s",
			wide, outs[0], wide, outs[1])
	}
}

// TestRunShardedPD smoke-runs power-of-d dispatch: pd3 and pd1 label
// their rows, and -parallel 1 and NumCPU print byte-identical reports.
func TestRunShardedPD(t *testing.T) {
	var outs []string
	for _, settings := range [][]string{
		{"-parallel", "1"},
		{"-parallel", strconv.Itoa(runtime.NumCPU())},
	} {
		var out, errb strings.Builder
		args := append([]string{
			"-servers", "6", "-jobs", "800", "-reps", "2",
			"-dispatchers", "pd3,pd1", "-loads", "0.8",
		}, settings...)
		if code := run(context.Background(), args, &out, &errb); code != 0 {
			t.Fatalf("%v: run = %d, stderr: %s", settings, code, errb.String())
		}
		outs = append(outs, out.String())
	}
	for _, want := range []string{"pd3", "pd1"} {
		if !strings.Contains(outs[0], want) {
			t.Errorf("output missing %q:\n%s", want, outs[0])
		}
	}
	for i := 1; i < len(outs); i++ {
		if outs[i] != outs[0] {
			t.Errorf("output depends on the engine settings:\n--- default ---\n%s\n--- variant %d ---\n%s", outs[0], i, outs[i])
		}
	}
}

// TestRunMetricsAndProfiles smoke-runs the observability surface: with
// -metrics the merged snapshot lands next to farm.csv, the simulation
// grid itself is byte-identical to a run without instrumentation, and
// -cpuprofile/-memprofile produce non-empty pprof files.
func TestRunMetricsAndProfiles(t *testing.T) {
	common := []string{
		"-servers", "2", "-jobs", "600", "-reps", "2",
		"-dispatchers", "rr,li", "-loads", "0.8",
	}
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var plain, instr, errb strings.Builder
	if code := run(context.Background(), common, &plain, &errb); code != 0 {
		t.Fatalf("plain run = %d, stderr: %s", code, errb.String())
	}
	args := append([]string{"-metrics", "-csv", dir, "-cpuprofile", cpu, "-memprofile", mem}, common...)
	if code := run(context.Background(), args, &instr, &errb); code != 0 {
		t.Fatalf("instrumented run = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(instr.String(), "metrics: ") {
		t.Errorf("metrics summary line missing:\n%s", instr.String())
	}
	// Instrumentation only observes: the report grid is unchanged.
	if got := strings.Split(instr.String(), "metrics: ")[0]; got != plain.String() {
		t.Errorf("-metrics changed the report:\n--- plain ---\n%s\n--- instrumented ---\n%s", plain.String(), got)
	}
	data, err := os.ReadFile(filepath.Join(dir, "farm_metrics.csv"))
	if err != nil {
		t.Fatalf("farm_metrics.csv: %v", err)
	}
	if lines := strings.Split(strings.TrimSpace(string(data)), "\n"); len(lines) < 10 ||
		lines[0] != "metric,kind,field,value" ||
		!strings.Contains(string(data), "sched_memo_") {
		t.Errorf("farm_metrics.csv unexpected:\n%s", data)
	}
	for _, p := range []string{cpu, mem} {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestMetricsCSVDeterministicAcrossParallel pins the snapshot-ordering
// contract at the CLI level: farm_metrics.csv is byte-identical at
// -parallel 1 and -parallel NumCPU.
func TestMetricsCSVDeterministicAcrossParallel(t *testing.T) {
	wide := runtime.NumCPU()
	if wide < 8 {
		wide = 8
	}
	var csvs []string
	for _, p := range []int{1, wide} {
		dir := t.TempDir()
		var out, errb strings.Builder
		code := run(context.Background(), []string{
			"-servers", "3", "-jobs", "600", "-reps", "3",
			"-dispatchers", "jsq,li", "-loads", "0.5,0.9",
			"-metrics", "-csv", dir, "-parallel", strconv.Itoa(p),
		}, &out, &errb)
		if code != 0 {
			t.Fatalf("-parallel %d: run = %d, stderr: %s", p, code, errb.String())
		}
		data, err := os.ReadFile(filepath.Join(dir, "farm_metrics.csv"))
		if err != nil {
			t.Fatal(err)
		}
		csvs = append(csvs, string(data))
	}
	if csvs[0] != csvs[1] {
		t.Errorf("farm_metrics.csv differs across -parallel:\n--- p=1 ---\n%s\n--- wide ---\n%s", csvs[0], csvs[1])
	}
}

func TestRunErrors(t *testing.T) {
	var out, errb strings.Builder
	for _, load := range []string{"1.5", "NaN", "+Inf", "-Inf", "0"} {
		if code := run(context.Background(), []string{"-loads", load}, &out, &errb); code != 2 {
			t.Errorf("load %s: run = %d, want 2", load, code)
		}
	}
	if code := run(context.Background(), []string{"-bogus"}, &out, &errb); code != 2 {
		t.Errorf("bad flag: run = %d, want 2", code)
	}
	// Unknown scheduler, estimator and dispatcher names are usage errors,
	// rejected before any table is built.
	if code := run(context.Background(), []string{"-jobs", "300", "-reps", "1", "-loads", "0.5", "-sched", "NOPE"}, &out, &errb); code != 2 {
		t.Errorf("unknown scheduler: run = %d, want 2", code)
	}
	errb.Reset()
	if code := run(context.Background(), []string{"-jobs", "300", "-reps", "1", "-loads", "0.5", "-estimator", "bogus"}, &out, &errb); code != 2 {
		t.Errorf("unknown estimator: run = %d, want 2", code)
	}
	if msg := errb.String(); !strings.Contains(msg, "bogus") {
		t.Errorf("unknown estimator: want an error naming it, got %q", msg)
	}
	// The dispatcher error names no grid cell.
	for _, name := range []string{"bogus", "pd0"} {
		errb.Reset()
		if code := run(context.Background(), []string{"-servers", "2", "-jobs", "300", "-reps", "1", "-loads", "0.5", "-dispatchers", name}, &out, &errb); code != 2 {
			t.Errorf("dispatcher %s: run = %d, want 2", name, code)
		}
		if msg := errb.String(); !strings.Contains(msg, name) || strings.Contains(msg, "dispatcher="+name) || strings.Contains(msg, "load=") {
			t.Errorf("dispatcher %s: want an error naming it without a cell prefix, got %q", name, msg)
		}
	}
	// Counts below 1 are usage errors naming the flag, never a silent
	// fallback to the default; so is a grid coordinate listed twice,
	// which would run and write its cells twice.
	for _, bad := range [][]string{
		{"-servers", "-3"},
		{"-servers", "0"},
		{"-jobs", "-300"},
		{"-reps", "-1"},
		{"-reps", "0"},
		{"-dispatchers", "li,li,rr"},
		{"-dispatchers", "pd,pd2"},
		{"-dispatchers", "pd2,pd02"},
		{"-loads", "0.5,0.5"},
		{"-loads", "0.5,0.8,0.50"},
	} {
		errb.Reset()
		if code := run(context.Background(), bad, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2", bad, code)
		}
		if !strings.Contains(errb.String(), bad[0]) {
			t.Errorf("run(%v): stderr does not name %s: %s", bad, bad[0], errb.String())
		}
	}
}

// TestRunEngineFlagValidation pins the up-front exit-2 contract on the
// run sizes and the worker-pool size: counts below 1 are usage errors
// caught before any simulation runs.
func TestRunEngineFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
		msg  string
	}{
		{"zero parallel", []string{"-parallel", "0"}, 2, "-parallel"},
		{"zero jobs", []string{"-jobs", "0"}, 2, "-jobs"},
		{"negative servers", []string{"-servers", "-3"}, 2, "-servers"},
		{"negative parallel", []string{"-parallel", "-2"}, 2, "-parallel"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb strings.Builder
			if code := run(context.Background(), tc.args, &out, &errb); code != tc.want {
				t.Fatalf("run(%v) = %d, want %d; stderr: %s", tc.args, code, tc.want, errb.String())
			}
			if tc.msg != "" && !strings.Contains(errb.String(), tc.msg) {
				t.Errorf("stderr should name %s:\n%s", tc.msg, errb.String())
			}
		})
	}
}

// TestRunCancelledNoPartialCSV pins the graceful-shutdown satellite: a
// cancelled context (what SIGINT/SIGTERM produce via main) aborts the
// sweep with a non-zero exit, reports the interruption, and leaves no
// partial farm.csv behind.
func TestRunCancelledNoPartialCSV(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb strings.Builder
	code := run(ctx, []string{
		"-servers", "2", "-jobs", "800", "-reps", "2",
		"-dispatchers", "rr,li", "-loads", "0.8", "-csv", dir,
	}, &out, &errb)
	if code == 0 {
		t.Fatalf("cancelled run = 0, want non-zero; stdout:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "interrupted") {
		t.Errorf("stderr does not report the interruption:\n%s", errb.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "farm.csv")); !os.IsNotExist(err) {
		t.Errorf("farm.csv exists after a cancelled run (stat err = %v)", err)
	}
}

// TestRunFaultFlags drives the fault-injection surface end to end: the
// report grows availability/goodput/redispatch panels, the CSV still
// carries the pinned farm grid, and the run stays byte-identical across
// -parallel.
func TestRunFaultFlags(t *testing.T) {
	var outs []string
	for _, p := range []string{"1", strconv.Itoa(runtime.NumCPU())} {
		var out, errb strings.Builder
		code := run(context.Background(), []string{
			"-servers", "3", "-jobs", "900", "-reps", "2",
			"-dispatchers", "jsq,li", "-loads", "0.8",
			"-mtbf", "30", "-mttr", "2", "-retries", "4",
			"-retry-delay", "0.25", "-checkpoint", "resume",
			"-parallel", p,
		}, &out, &errb)
		if code != 0 {
			t.Fatalf("-parallel %s: run = %d, stderr: %s", p, code, errb.String())
		}
		outs = append(outs, out.String())
	}
	got := outs[0]
	for _, want := range []string{"!mtbf=30", "availability", "goodput", "redispatches"} {
		if !strings.Contains(got, want) {
			t.Errorf("fault run output missing %q:\n%s", want, got)
		}
	}
	if outs[0] != outs[1] {
		t.Errorf("fault run differs across -parallel:\n--- p=1 ---\n%s\n--- wide ---\n%s", outs[0], outs[1])
	}
}

// TestRunFaultFlagValidation is the table-driven up-front rejection of
// inconsistent fault flags: every bad combination exits 2 before any
// simulation runs, with the offending flag named on stderr.
func TestRunFaultFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // stderr substring
	}{
		{"negative mtbf", []string{"-mtbf", "-1"}, "MTBF"},
		{"mtbf without mttr", []string{"-mtbf", "10", "-mttr", "0"}, "MTTR"},
		{"negative mttr", []string{"-mtbf", "10", "-mttr", "-2"}, "MTTR"},
		{"negative retries", []string{"-mtbf", "10", "-retries", "-1"}, "MaxRetries"},
		{"negative retry delay", []string{"-mtbf", "10", "-retry-delay", "-0.5"}, "RetryDelay"},
		{"unknown checkpoint", []string{"-mtbf", "10", "-checkpoint", "rollback"}, "Checkpoint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb strings.Builder
			args := append(tc.args, "-jobs", "300", "-reps", "1", "-loads", "0.5")
			if code := run(context.Background(), args, &out, &errb); code != 2 {
				t.Fatalf("run = %d, want 2; stderr: %s", code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.want) {
				t.Errorf("stderr %q does not mention %q", errb.String(), tc.want)
			}
		})
	}
}
