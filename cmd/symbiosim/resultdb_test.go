package main

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestProfileSmoke pins the satellite contract: -cpuprofile and
// -memprofile produce non-empty pprof files for a normal run.
func TestProfileSmoke(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errb strings.Builder
	code := run(context.Background(), []string{"-cpuprofile", cpu, "-memprofile", mem, "run", "fig4"}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errb.String())
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

// TestRunRecord stores a scenario run in a resultdb store and reads it
// back through the resultdb and diff subcommands: an identical pair
// reports no deltas and exits 0.
func TestRunRecord(t *testing.T) {
	db := t.TempDir()
	var out, errb strings.Builder
	code := run(context.Background(), []string{"-record", db, "-note", "smoke", "run", "fig4"}, &out, &errb)
	if code != 0 {
		t.Fatalf("run -record = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "recorded as fig4_") {
		t.Fatalf("record confirmation missing:\n%s", out.String())
	}

	out.Reset()
	if code := run(context.Background(), []string{"resultdb", "-db", db, "list"}, &out, &errb); code != 0 {
		t.Fatalf("resultdb list = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "fig4") || !strings.Contains(out.String(), "smoke") {
		t.Errorf("list output unexpected:\n%s", out.String())
	}

	out.Reset()
	if code := run(context.Background(), []string{"resultdb", "-db", db, "show", "latest"}, &out, &errb); code != 0 {
		t.Fatalf("resultdb show = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "scenario: fig4") || !strings.Contains(out.String(), "table fig4:") {
		t.Errorf("show output unexpected:\n%s", out.String())
	}

	out.Reset()
	if code := run(context.Background(), []string{"diff", "-db", db, "latest", "latest"}, &out, &errb); code != 0 {
		t.Fatalf("diff identical = %d, stderr: %s", code, errb.String())
	}
	if out.String() != "no deltas\n" {
		t.Errorf("identical diff output = %q", out.String())
	}
}

// benchOutput fabricates one `go test -bench` result block with the
// given MAXIT depth=32 ns/op.
func benchOutput(maxitNs string) string {
	return "goos: linux\n" +
		"BenchmarkSchedulerSelect/MAXIT/depth=32-8 \t 100 \t " + maxitNs + " ns/op \t 0 B/op \t 0 allocs/op\n" +
		"BenchmarkSchedulerSelect/SRPT/depth=32-8 \t 100 \t 1300 ns/op \t 0 B/op \t 0 allocs/op\n" +
		"PASS\n"
}

// TestPerfGateSingleRuns gates two single-run outputs as one
// parent/change pair: the benchmark 25% slower in it fails and the
// unchanged one passes.
func TestPerfGateSingleRuns(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.txt")
	slow := filepath.Join(dir, "slow.txt")
	if err := os.WriteFile(base, []byte(benchOutput("100")), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(slow, []byte(benchOutput("125")), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := run(context.Background(), []string{"perfgate", base, slow}, &out, &errb); code != 1 {
		t.Fatalf("perfgate regressed = %d, want 1; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "FAIL BenchmarkSchedulerSelect/MAXIT/depth=32") ||
		!strings.Contains(out.String(), "ok   BenchmarkSchedulerSelect/SRPT/depth=32") {
		t.Errorf("gate report unexpected:\n%s", out.String())
	}
}

// TestPerfGateExitCodes pins perfgate's exit codes on written files:
// 0 when nothing fails, 1 when a benchmark fails, 2 for a usage error,
// an unreadable or corrupt file and samples that cannot be paired.
func TestPerfGateExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ns ...string) string {
		var b strings.Builder
		for _, v := range ns {
			b.WriteString(benchOutput(v))
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	parent := write("parent.txt", "100", "104", "98", "101", "99", "102", "100", "97", "103", "100")
	same := write("same.txt", "101", "103", "99", "100", "98", "103", "100", "98", "102", "101")
	slow := write("slow.txt", "300", "312", "294", "303", "297", "306", "300", "291", "309", "300")
	short := write("short.txt", "100", "104")
	nan := filepath.Join(dir, "nan.txt")
	if err := os.WriteFile(nan, []byte("BenchmarkSchedulerSelect/MAXIT/depth=32-8  100  NaN ns/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := write("empty.txt")
	for _, tc := range []struct {
		desc string
		args []string
		want int
	}{
		{"same code", []string{parent, same}, 0},
		{"3x slower in every pair", []string{parent, slow}, 1},
		{"one file", []string{parent}, 2},
		{"a removed flag", []string{"-tol", "0.5", parent, same}, 2},
		{"missing file", []string{parent, filepath.Join(dir, "absent.txt")}, 2},
		{"NaN ns/op", []string{parent, nan}, 2},
		{"no benchmark lines", []string{empty, same}, 2},
		{"unequal sample counts", []string{parent, short}, 2},
	} {
		var out, errb strings.Builder
		if code := run(context.Background(), append([]string{"perfgate"}, tc.args...), &out, &errb); code != tc.want {
			t.Errorf("%s: perfgate = %d, want %d; stdout:\n%s\nstderr: %s", tc.desc, code, tc.want, out.String(), errb.String())
		}
	}
}

// TestSubcommandUsageErrors pins the exit-2 contract on malformed
// subcommand invocations.
func TestSubcommandUsageErrors(t *testing.T) {
	var out, errb strings.Builder
	for _, args := range [][]string{
		{"diff", "onlyone"},
		{"perfgate"},
		{"resultdb", "-db", t.TempDir(), "bogus"},
		{"diff", "-db", t.TempDir(), "latest", "latest"},
	} {
		if code := run(context.Background(), args, &out, &errb); code != 2 {
			t.Errorf("%v = %d, want 2", args, code)
		}
	}
	// Reading a store never creates it: a mistyped -db is an error
	// naming the path, and no directory appears.
	dir := t.TempDir()
	typo := filepath.Join(dir, "typo")
	for _, args := range [][]string{
		{"diff", "-db", typo, "latest", "latest"},
		{"trend", "-db", typo, "-scenario", "fig4"},
		{"resultdb", "-db", typo, "list"},
	} {
		errb.Reset()
		if code := run(context.Background(), args, &out, &errb); code != 2 {
			t.Errorf("%v = %d, want 2", args, code)
		}
		if !strings.Contains(errb.String(), typo) {
			t.Errorf("%v: stderr %q does not name the path", args, errb.String())
		}
		if _, err := os.Stat(typo); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%v left %s behind (stat: %v)", args, typo, err)
		}
	}
	// A NaN or infinite tolerance would hide every delta, and a negative
	// one means nothing: each is rejected even over a readable record.
	db := filepath.Join(dir, "db")
	if code := run(context.Background(), []string{"-record", db, "run", "fig4"}, &out, &errb); code != 0 {
		t.Fatalf("run -record = %d, stderr: %s", code, errb.String())
	}
	for _, tol := range []string{"NaN", "Inf", "-1"} {
		errb.Reset()
		if code := run(context.Background(), []string{"diff", "-db", db, "-tol", tol, "latest", "latest"}, &out, &errb); code != 2 {
			t.Errorf("diff -tol %s = %d, want 2", tol, code)
		}
		if !strings.Contains(errb.String(), "-tol") {
			t.Errorf("diff -tol %s: stderr %q does not name the flag", tol, errb.String())
		}
	}
	// latest~N takes an integer and nothing else.
	for _, ref := range []string{"latest~0junk", "latest~1.5"} {
		if code := run(context.Background(), []string{"diff", "-db", db, ref, "latest"}, &out, &errb); code != 2 {
			t.Errorf("diff %s latest = %d, want 2", ref, code)
		}
	}
}

// TestResultDBListSkipsCorrupt pins the lenient-loading satellite at the
// CLI level: a truncated record in the store is skipped with a warning,
// and `resultdb list` still lists the intact records and exits 0.
func TestResultDBListSkipsCorrupt(t *testing.T) {
	db := t.TempDir()
	var out, errb strings.Builder
	if code := run(context.Background(), []string{"-record", db, "run", "fig4"}, &out, &errb); code != 0 {
		t.Fatalf("run -record = %d, stderr: %s", code, errb.String())
	}

	// Damage a copy of the stored record: half a gob stream under a
	// fresh .gob name, as a crashed writer or disk fault would leave.
	entries, err := os.ReadDir(db)
	if err != nil {
		t.Fatal(err)
	}
	var good string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".gob") {
			good = e.Name()
		}
	}
	if good == "" {
		t.Fatal("no record written")
	}
	data, err := os.ReadFile(filepath.Join(db, good))
	if err != nil {
		t.Fatal(err)
	}
	bad := "fig4_bad_00000000_0000000000000000.gob"
	if err := os.WriteFile(filepath.Join(db, bad), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	errb.Reset()
	if code := run(context.Background(), []string{"resultdb", "-db", db, "list"}, &out, &errb); code != 0 {
		t.Fatalf("resultdb list with corrupt record = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), good) {
		t.Errorf("intact record %s missing from list:\n%s", good, out.String())
	}
	if strings.Contains(out.String(), bad) {
		t.Errorf("corrupt record %s listed as readable:\n%s", bad, out.String())
	}
	if !strings.Contains(errb.String(), "warning") || !strings.Contains(errb.String(), bad) {
		t.Errorf("no skip warning naming %s on stderr:\n%s", bad, errb.String())
	}
}
