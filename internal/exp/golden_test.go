package exp

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"symbiosched/internal/scenario"
)

// Regenerate the golden CSVs and report texts with:
//
//	go test ./internal/exp -run TestCSVGolden -update
var update = flag.Bool("update", false, "rewrite the golden CSV and report files")

// goldenScenarios lists the CSV-producing scenarios the golden files pin,
// in registry order: the paper's figures and tables, the farm/online
// extensions (tiny grids, matching the historical golden content), and
// the hetfarm/burst/slo scenarios.
func goldenScenarios() []*scenario.Scenario {
	var out []*scenario.Scenario
	for _, name := range scenario.Names() {
		switch name {
		case "n8", "fairness", "uarch":
			continue // text-only, and far too slow for a golden run
		case "farm":
			out = append(out, FarmScenario(FarmOptions{Servers: 2, Replications: 2}))
		case "online":
			out = append(out, OnlineScenario(OnlineOptions{Workloads: 3}))
		default:
			s, _ := scenario.Lookup(name)
			out = append(out, s)
		}
	}
	return out
}

// goldenCSVs runs every golden scenario through the engine on a fresh
// tiny Env at the given parallelism, writes every result table and the
// report text (<scenario>.txt) into dir, and returns the file names.
func goldenCSVs(t *testing.T, dir string, parallelism int) []string {
	t.Helper()
	e := tinyEnv(parallelism)
	var names []string
	for _, s := range goldenScenarios() {
		res, err := s.Run(context.Background(), e, e.runCfg(s.Name))
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if len(res.Tables) == 0 {
			t.Fatalf("%s: golden scenario produced no tables", s.Name)
		}
		for _, tbl := range res.Tables {
			if err := tbl.WriteFile(dir); err != nil {
				t.Fatalf("%s: %v", tbl.Name, err)
			}
			names = append(names, tbl.Name+".csv")
		}
		if err := os.WriteFile(filepath.Join(dir, s.Name+".txt"), []byte(res.Text), 0o644); err != nil {
			t.Fatal(err)
		}
		names = append(names, s.Name+".txt")
	}
	return names
}

// TestCSVGolden pins the actual figure content, not just its determinism:
// every scenario's tables and report text must be byte-identical to the
// committed golden files, at Parallelism 1 and at NumCPU. A real change
// to the models or simulators shows up as a golden diff to be reviewed
// and regenerated with -update.
func TestCSVGolden(t *testing.T) {
	goldenDir := filepath.Join("testdata", "golden")

	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		goldenCSVs(t, goldenDir, 1)
		t.Log("golden CSVs and report texts rewritten")
		return
	}

	// Pool of NumCPU, but at least 8 so single-core machines still
	// exercise a genuinely concurrent pool.
	wide := runtime.NumCPU()
	if wide < 8 {
		wide = 8
	}
	for _, p := range []int{1, wide} {
		t.Run(fmt.Sprintf("parallel=%d", p), func(t *testing.T) {
			dir := t.TempDir()
			for _, name := range goldenCSVs(t, dir, p) {
				got, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				want, err := os.ReadFile(filepath.Join(goldenDir, name))
				if err != nil {
					t.Fatalf("%s: %v (regenerate with -update)", name, err)
				}
				if string(got) != string(want) {
					t.Errorf("%s differs from golden file (regenerate with -update if the change is intended)\n--- got ---\n%s\n--- want ---\n%s",
						name, got, want)
				}
			}
		})
	}
}

// TestRegistryComplete pins the registry surface the CLI dispatches over:
// every legacy experiment name plus the three extension scenarios.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig1", "fig2", "fig3", "table2", "n8", "fairness",
		"fig4", "fig5", "fig6", "uarch", "makespan", "farm", "online",
		"hetfarm", "megafarm", "burst", "slo", "resilience",
	}
	got := map[string]bool{}
	for _, name := range scenario.Names() {
		got[name] = true
	}
	for _, name := range want {
		if !got[name] {
			t.Errorf("scenario %q not registered", name)
		}
		s, _ := scenario.Lookup(name)
		if s == nil || s.Desc == "" {
			t.Errorf("scenario %q has no description for `symbiosim list`", name)
		}
	}
}
