package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFig4 is the tiny end-to-end smoke run: fig4 is purely analytic
// (M/M/c curves), so it exercises flag parsing, the scenario registry
// and the output path in milliseconds.
func TestRunFig4(t *testing.T) {
	var out, errb strings.Builder
	if code := run(context.Background(), []string{"-parallel", "1", "run", "fig4"}, &out, &errb); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	if !strings.Contains(got, "Figure 4") || !strings.Contains(got, "fig4 took") {
		t.Errorf("fig4 output unexpected:\n%s", got)
	}
}

func TestRunFig4CSV(t *testing.T) {
	dir := t.TempDir()
	var out, errb strings.Builder
	if code := run(context.Background(), []string{"-csv", dir, "run", "fig4"}, &out, &errb); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errb.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "fig4.csv")); err != nil {
		t.Errorf("fig4.csv not written: %v", err)
	}
}

// TestList pins the registry surface the CLI exposes: every paper
// experiment plus the extension scenarios, one per line with a
// description.
func TestList(t *testing.T) {
	var out, errb strings.Builder
	if code := run(context.Background(), []string{"list"}, &out, &errb); code != 0 {
		t.Fatalf("list = %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	for _, name := range []string{
		"table1", "fig1", "fig2", "fig3", "table2", "n8", "fairness",
		"fig4", "fig5", "fig6", "uarch", "makespan", "farm", "online",
		"hetfarm", "burst", "slo",
	} {
		if !strings.Contains(got, name+" ") && !strings.Contains(got, name+"\n") {
			t.Errorf("list output missing scenario %q:\n%s", name, got)
		}
	}
	for _, l := range strings.Split(strings.TrimSpace(got), "\n") {
		if len(strings.Fields(l)) < 2 {
			t.Errorf("list line %q has no description", l)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := run(context.Background(), nil, &out, &errb); code != 2 {
		t.Errorf("no arguments: run = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "usage: symbiosim") {
		t.Errorf("usage not printed: %s", errb.String())
	}
	errb.Reset()
	if code := run(context.Background(), []string{"nonsense"}, &out, &errb); code != 2 {
		t.Errorf("unknown command: run = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown command") {
		t.Errorf("unknown command not reported: %s", errb.String())
	}
	errb.Reset()
	if code := run(context.Background(), []string{"run"}, &out, &errb); code != 2 {
		t.Errorf("run without scenarios: run = %d, want 2", code)
	}
	errb.Reset()
	if code := run(context.Background(), []string{"run", "nonsense"}, &out, &errb); code != 2 {
		t.Errorf("unknown scenario: run = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown scenario") {
		t.Errorf("unknown scenario not reported: %s", errb.String())
	}
	// The worker-pool size and run sizes are validated up front: a count
	// below its minimum is a usage error naming the flag, before any
	// scenario runs.
	for _, bad := range [][]string{
		{"-parallel", "0", "run", "fig4"},
		{"-parallel", "-3", "run", "fig4"},
		{"-sim-jobs", "-5", "run", "fig5"},
		{"-sim-jobs", "0", "run", "farm"},
		{"-fcfs-jobs", "-5", "run", "table1"},
		{"-sample", "-3", "run", "fig5"},
	} {
		errb.Reset()
		if code := run(context.Background(), bad, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2; stderr: %s", bad, code, errb.String())
		}
		if !strings.Contains(errb.String(), bad[0]) {
			t.Errorf("run(%v): stderr does not name %s: %s", bad, bad[0], errb.String())
		}
	}
}

// TestRunCancelledNoPartialCSV pins the graceful-shutdown satellite on
// the scenario runner: a cancelled context aborts the scenario with a
// non-zero exit, reports the interruption, and writes no partial CSV.
func TestRunCancelledNoPartialCSV(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb strings.Builder
	code := run(ctx, []string{"-csv", dir, "run", "fig4"}, &out, &errb)
	if code == 0 {
		t.Fatalf("cancelled run = 0, want non-zero; stdout:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "interrupted") {
		t.Errorf("stderr does not report the interruption:\n%s", errb.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("cancelled run left %s behind", e.Name())
	}
}
