package exp

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestGoldenIdenticalWithMetricsOn pins the zero-interference half of the
// observability tentpole at the scenario level: with Config.Metrics on,
// every golden CSV and report text is still byte-identical to the
// committed files — the instrumentation only adds *_metrics tables, it
// never perturbs a result.
func TestGoldenIdenticalWithMetricsOn(t *testing.T) {
	goldenDir := filepath.Join("testdata", "golden")
	e := tinyEnv(4)
	e.Cfg.Metrics = true
	dir := t.TempDir()
	sawMetrics := false
	for _, s := range goldenScenarios() {
		res, err := s.Run(context.Background(), e, e.runCfg(s.Name))
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		want, err := os.ReadFile(filepath.Join(goldenDir, s.Name+".txt"))
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if res.Text != string(want) {
			t.Errorf("%s.txt differs from golden with Metrics on", s.Name)
		}
		for _, tbl := range res.Tables {
			if strings.HasSuffix(tbl.Name, "_metrics") {
				sawMetrics = true
				continue // extra table, not part of the golden contract
			}
			if err := tbl.WriteFile(dir); err != nil {
				t.Fatalf("%s: %v", tbl.Name, err)
			}
			got, err := os.ReadFile(filepath.Join(dir, tbl.Name+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(goldenDir, tbl.Name+".csv"))
			if err != nil {
				t.Fatalf("%s: %v", tbl.Name, err)
			}
			if string(got) != string(want) {
				t.Errorf("%s.csv differs from golden with Metrics on", tbl.Name)
			}
		}
	}
	if !sawMetrics {
		t.Error("no scenario produced a *_metrics table with Metrics on")
	}
}

// TestFarmMetricsTableDeterministic pins the snapshot-ordering contract
// through the scenario layer: the farm scenario's farm_metrics.csv is
// byte-identical at Parallelism 1 and NumCPU (at least 8).
func TestFarmMetricsTableDeterministic(t *testing.T) {
	wide := runtime.NumCPU()
	if wide < 8 {
		wide = 8
	}
	var csvs []string
	for _, p := range []int{1, wide} {
		e := tinyEnv(p)
		e.Cfg.Metrics = true
		s := FarmScenario(FarmOptions{Servers: 2, Replications: 2})
		res, err := s.Run(context.Background(), e, e.runCfg(s.Name))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		found := false
		for _, tbl := range res.Tables {
			if !strings.HasSuffix(tbl.Name, "_metrics") {
				continue
			}
			found = true
			if err := tbl.WriteFile(dir); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(dir, tbl.Name+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			csvs = append(csvs, string(data))
		}
		if !found {
			t.Fatal("farm scenario produced no *_metrics table")
		}
	}
	if csvs[0] != csvs[1] {
		t.Errorf("farm metrics CSV differs across parallelism:\n--- p=1 ---\n%s\n--- wide ---\n%s", csvs[0], csvs[1])
	}
}
