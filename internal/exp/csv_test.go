package exp

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTables runs the named scenario on e and writes every result table
// into dir.
func writeTables(t *testing.T, e *Env, name, dir string) any {
	t.Helper()
	res, err := RunScenario(context.Background(), e, name)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, tbl := range res.Tables {
		if err := tbl.WriteFile(dir); err != nil {
			t.Fatalf("%s: %v", tbl.Name, err)
		}
	}
	return res.Value
}

// TestWriteCSV pins the shape of a driver-built table on disk: the
// header names the columns and there is one data row per point.
func TestWriteCSV(t *testing.T) {
	e := miniEnv(t)
	dir := t.TempDir()
	smt := writeTables(t, e, "fig2", dir).([]*Fig2Result)[0]
	data, err := os.ReadFile(filepath.Join(dir, "fig2_smt.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "workload,opt_vs_worst,fcfs_vs_worst" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines)-1 != len(smt.Points) {
		t.Errorf("%d data rows, want %d", len(lines)-1, len(smt.Points))
	}
	if _, err := os.Stat(filepath.Join(dir, "fig2_quad.csv")); err != nil {
		t.Error(err)
	}
}

// TestWriteCSVAllFigureTypes checks that the analytic, the grid and the
// extension drivers each emit their CSV table.
func TestWriteCSVAllFigureTypes(t *testing.T) {
	e := miniEnv(t)
	dir := t.TempDir()
	for name, file := range map[string]string{"fig4": "fig4", "fig5": "fig5", "makespan": "makespan8"} {
		writeTables(t, e, name, dir)
		if _, err := os.Stat(filepath.Join(dir, file+".csv")); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
