// This file holds the resultdb-facing subcommands: diff, resultdb
// (list/show) and perfgate. They are thin shells over internal/resultdb
// — reference resolution, record construction and exit codes live here;
// comparison and storage semantics live in the library.

package main

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"symbiosched/internal/resultdb"
	"symbiosched/internal/scenario"
)

// defaultDB is where the resultdb subcommands look for records unless
// -db says otherwise.
const defaultDB = "resultdb"

// currentCommit best-effort identifies the commit a record belongs to:
// the SYMBIOSIM_COMMIT / GITHUB_SHA environment (CI), else the .git HEAD
// resolved by hand (no git subprocess, so records work in bare
// containers), else "unknown".
func currentCommit() string {
	for _, k := range []string{"SYMBIOSIM_COMMIT", "GITHUB_SHA"} {
		if v := os.Getenv(k); v != "" {
			return v
		}
	}
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		if c := commitFromGitDir(filepath.Join(dir, ".git")); c != "" {
			return c
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

// commitFromGitDir resolves HEAD inside one .git directory, following a
// symbolic ref through loose and packed refs. Empty means unresolved.
func commitFromGitDir(gitDir string) string {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	s := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(s, "ref: ")
	if !ok {
		return s // detached HEAD carries the hash directly
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	if pr, err := os.ReadFile(filepath.Join(gitDir, "packed-refs")); err == nil {
		for _, line := range strings.Split(string(pr), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
				return f[0]
			}
		}
	}
	return ""
}

// configHash derives the record's config key from the result-affecting
// parts of the run configuration (FNV-64a, like the content hash).
func configHash(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%s|", p)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// recordTables converts scenario tables into the record's map-free
// mirrors. Tables named *_metrics are additionally mirrored into the
// record's Metrics rows, so `symbiosim diff` reports them per-metric
// rather than per-cell.
func recordTables(ts []*scenario.Table) ([]resultdb.Table, []resultdb.MetricRow) {
	var tables []resultdb.Table
	var mrows []resultdb.MetricRow
	for _, t := range ts {
		header := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			header[i] = c.Name
		}
		tables = append(tables, resultdb.Table{Name: t.Name, Header: header, Rows: t.Rows})
		if !strings.HasSuffix(t.Name, "_metrics") {
			continue
		}
		for _, row := range t.Rows {
			if len(row) == 4 {
				mrows = append(mrows, resultdb.MetricRow{Metric: row[0], Kind: row[1], Field: row[2], Value: row[3]})
			}
		}
	}
	return tables, mrows
}

// openStore opens the existing record store at dir; reading a store
// never creates one.
func openStore(dir string, stderr io.Writer) (*resultdb.Store, bool) {
	st, err := resultdb.Open(dir)
	if err != nil {
		fmt.Fprintf(stderr, "symbiosim: %v\n", err)
		return nil, false
	}
	return st, true
}

// getByRef resolves and loads one record reference.
func getByRef(st *resultdb.Store, ref string, stderr io.Writer) (*resultdb.Record, bool) {
	name, err := st.Resolve(ref)
	if err != nil {
		fmt.Fprintf(stderr, "symbiosim: %v\n", err)
		return nil, false
	}
	rec, err := st.Get(name)
	if err != nil {
		fmt.Fprintf(stderr, "symbiosim: %v\n", err)
		return nil, false
	}
	return rec, true
}

func parseOrUsage(fs *flag.FlagSet, args []string, usage string, stderr io.Writer) (ok bool, code int) {
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s\n", usage)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return false, 0
		}
		return false, 2
	}
	return true, 0
}

// runDiffCmd implements `symbiosim diff`: per-cell and per-metric
// deltas between two stored records. Exit 0 means no deltas beyond
// tolerance, 1 means deltas, 2 means usage or lookup failure.
func runDiffCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("symbiosim diff", flag.ContinueOnError)
	db := fs.String("db", defaultDB, "record store directory")
	tol := fs.Float64("tol", 0, "relative tolerance below which numeric deltas are not reported")
	if ok, code := parseOrUsage(fs, args, "symbiosim diff [-db dir] [-tol f] <ref> <ref>   (refs: latest, latest~N, name prefix)", stderr); !ok {
		return code
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	// A NaN or infinite tolerance would hide every numeric delta, and a
	// negative one would act as 0.
	if !(*tol >= 0) || math.IsInf(*tol, 1) {
		fmt.Fprintf(stderr, "symbiosim: -tol %v: want a finite non-negative tolerance\n", *tol)
		return 2
	}
	st, ok := openStore(*db, stderr)
	if !ok {
		return 2
	}
	a, ok := getByRef(st, fs.Arg(0), stderr)
	if !ok {
		return 2
	}
	b, ok := getByRef(st, fs.Arg(1), stderr)
	if !ok {
		return 2
	}
	ds := resultdb.Diff(a, b, resultdb.DiffOptions{Tol: *tol})
	fmt.Fprint(stdout, resultdb.FormatDeltas(ds))
	if len(ds) > 0 {
		return 1
	}
	return 0
}

// runResultDBCmd implements `symbiosim resultdb list|show`.
func runResultDBCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("symbiosim resultdb", flag.ContinueOnError)
	db := fs.String("db", defaultDB, "record store directory")
	if ok, code := parseOrUsage(fs, args, "symbiosim resultdb [-db dir] list | show <ref>", stderr); !ok {
		return code
	}
	st, ok := openStore(*db, stderr)
	if !ok {
		return 2
	}
	switch fs.Arg(0) {
	case "list":
		names, err := st.List()
		if err != nil {
			fmt.Fprintf(stderr, "symbiosim: %v\n", err)
			return 1
		}
		for _, n := range names {
			rec, err := st.Get(n)
			if err != nil {
				// A truncated or corrupt record must not hide the rest
				// of the store: warn and keep listing.
				if errors.Is(err, resultdb.ErrCorrupt) {
					fmt.Fprintf(stderr, "symbiosim: warning: skipping %v\n", err)
					continue
				}
				fmt.Fprintf(stderr, "symbiosim: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "%-20s %-8s %s  %s\n", rec.When, rec.Scenario, n, rec.Note)
		}
		return 0
	case "show":
		if fs.NArg() != 2 {
			fs.Usage()
			return 2
		}
		rec, ok := getByRef(st, fs.Arg(1), stderr)
		if !ok {
			return 2
		}
		fmt.Fprintf(stdout, "scenario: %s\nconfig:   %s\ncommit:   %s\nwhen:     %s\n",
			rec.Scenario, rec.ConfigHash, rec.Commit, rec.When)
		if rec.Note != "" {
			fmt.Fprintf(stdout, "note:     %s\n", rec.Note)
		}
		for _, t := range rec.Tables {
			fmt.Fprintf(stdout, "table %s: %d columns x %d rows\n", t.Name, len(t.Header), len(t.Rows))
		}
		if len(rec.Metrics) > 0 {
			fmt.Fprintf(stdout, "metrics: %d rows\n", len(rec.Metrics))
		}
		return 0
	default:
		fs.Usage()
		return 2
	}
}

// runPerfGateCmd implements `symbiosim perfgate`: compare two `go test
// -bench` outputs of the same benchmarks, the parent's and the change's,
// taken in alternating pairs on one machine (perf/gate.sh). Exit 0
// means no benchmark failed, 1 that one did, 2 a usage error, an
// unreadable or corrupt file, or samples that cannot be paired.
func runPerfGateCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("symbiosim perfgate", flag.ContinueOnError)
	if ok, code := parseOrUsage(fs, args, "symbiosim perfgate <parent-output> <change-output>", stderr); !ok {
		return code
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	var sides [2][]resultdb.Bench
	for i := range sides {
		bs, err := readBench(fs.Arg(i))
		if err != nil {
			fmt.Fprintf(stderr, "symbiosim: %v\n", err)
			return 2
		}
		sides[i] = bs
	}
	rs, err := resultdb.Gate(sides[0], sides[1])
	if err != nil {
		fmt.Fprintf(stderr, "symbiosim: %v\n", err)
		return 2
	}
	fmt.Fprint(stdout, resultdb.FormatGate(rs))
	if resultdb.Failed(rs) {
		return 1
	}
	return 0
}

// readBench parses one file of `go test -bench` output, "-" meaning
// stdin; a file with no benchmark line is an error, as a gate of it
// would hold nothing.
func readBench(path string) ([]resultdb.Bench, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	bs, err := resultdb.ParseBench(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bs) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines", path)
	}
	return bs, nil
}
