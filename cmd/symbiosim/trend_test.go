package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"symbiosched/internal/resultdb"
	"symbiosched/internal/scenario"
)

// trendStore builds a store with three synthetic farm records at
// strictly increasing mtimes (oldest commit aaaa, newest cccc), plus
// one record under another scenario that trend must ignore.
func trendStore(t *testing.T) string {
	t.Helper()
	db := t.TempDir()
	st, err := resultdb.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	put := func(scen, commit string, jobs, util float64, age time.Duration) {
		rec := &resultdb.Record{
			Scenario:   scen,
			ConfigHash: "cfg0",
			Commit:     commit,
			When:       base.Add(age).UTC().Format(time.RFC3339),
			Metrics: []resultdb.MetricRow{
				{Metric: "farm", Kind: "counter", Field: "jobs", Value: scenario.FormatFloat(jobs)},
				{Metric: "farm", Kind: "gauge", Field: "util", Value: scenario.FormatFloat(util)},
				{Metric: "farm", Kind: "gauge", Field: "note", Value: "text"},
			},
		}
		name, err := st.Put(rec)
		if err != nil {
			t.Fatal(err)
		}
		when := base.Add(age)
		if err := os.Chtimes(filepath.Join(db, name), when, when); err != nil {
			t.Fatal(err)
		}
	}
	put("farm", "aaaa1111", 100, 0.50, 0)
	put("farm", "bbbb2222", 150, 0.60, time.Second)
	put("farm", "cccc3333", 125, 0.55, 2*time.Second)
	put("other", "dddd4444", 999, 0.99, 3*time.Second)
	return db
}

// TestTrendSmoke drives the trend subcommand over three synthetic
// records: oldest-first walk, one series per numeric metric, a
// sparkline per series, and the long-format CSV with -csv.
func TestTrendSmoke(t *testing.T) {
	db := trendStore(t)
	csv := t.TempDir()
	var out, errb strings.Builder
	if code := run(context.Background(), []string{"trend", "-db", db, "-scenario", "farm", "-csv", csv}, &out, &errb); code != 0 {
		t.Fatalf("trend = %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	if !strings.Contains(got, "3 records") {
		t.Errorf("trend did not count 3 records:\n%s", got)
	}
	// Oldest first: aaaa before bbbb before cccc, dddd's scenario excluded.
	ia, ib, ic := strings.Index(got, "aaaa1111"), strings.Index(got, "bbbb2222"), strings.Index(got, "cccc3333")
	if ia < 0 || ib < 0 || ic < 0 || !(ia < ib && ib < ic) {
		t.Errorf("records not in oldest-first order (%d %d %d):\n%s", ia, ib, ic, got)
	}
	if strings.Contains(got, "dddd4444") {
		t.Errorf("foreign scenario leaked into the walk:\n%s", got)
	}
	if !strings.Contains(got, "metric farm/jobs") ||
		!strings.Contains(got, "metric farm/util") {
		t.Errorf("expected series missing:\n%s", got)
	}
	if strings.Contains(got, "farm/note") {
		t.Errorf("non-numeric metric grew a series:\n%s", got)
	}
	// jobs went 100 -> 150 -> 125: min, max, then mid — the sparkline
	// must open at the bottom glyph and peak in the middle.
	if !strings.Contains(got, "▁█") {
		t.Errorf("sparkline shape missing (want low-then-high run):\n%s", got)
	}

	data, err := os.ReadFile(filepath.Join(csv, "trend_farm.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	// Header + 3 jobs points + 3 util points.
	if len(lines) != 7 {
		t.Fatalf("trend CSV has %d lines, want 7:\n%s", len(lines), data)
	}
	if lines[0] != "seq,commit,when,series,value" {
		t.Errorf("trend CSV header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "0,aaaa1111") || !strings.Contains(lines[1], ",100") {
		t.Errorf("first jobs row unexpected: %q", lines[1])
	}
	if !strings.Contains(lines[3], "2,cccc3333") || !strings.Contains(lines[3], ",125") {
		t.Errorf("last jobs row unexpected: %q", lines[3])
	}
}

// TestTrendFiltersAndErrors pins -last, the -metric filter, and the
// exit-code contract (1 = nothing to show, 2 = usage).
func TestTrendFiltersAndErrors(t *testing.T) {
	db := trendStore(t)
	var out, errb strings.Builder
	if code := run(context.Background(), []string{"trend", "-db", db, "-scenario", "farm", "-last", "2", "-metric", "util"}, &out, &errb); code != 0 {
		t.Fatalf("trend -last 2 = %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	if strings.Contains(got, "aaaa1111") || !strings.Contains(got, "bbbb2222") {
		t.Errorf("-last 2 should keep only the two newest records:\n%s", got)
	}
	if !strings.Contains(got, "2 records") {
		t.Errorf("-last 2 record count wrong:\n%s", got)
	}

	out.Reset()
	if code := run(context.Background(), []string{"trend", "-db", db, "-scenario", "farm", "-metric", "NoSuch"}, &out, &errb); code != 1 {
		t.Errorf("trend with a dead filter = %d, want 1", code)
	}
	if code := run(context.Background(), []string{"trend", "-db", t.TempDir(), "-scenario", "farm"}, &out, &errb); code != 1 {
		t.Errorf("trend over empty store = %d, want 1", code)
	}
	for _, args := range [][]string{
		{"-scenario", "farm", "-last", "-1"},
		{"-scenario", "farm", "stray"},
		{},
	} {
		if code := run(context.Background(), append([]string{"trend", "-db", db}, args...), &out, &errb); code != 2 {
			t.Errorf("trend %v = %d, want 2", args, code)
		}
	}
}
