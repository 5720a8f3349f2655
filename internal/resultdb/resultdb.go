// Package resultdb is the content-addressed run store behind symbiosim's
// -record, diff and trend: each Record captures one run's scenario
// tables and metrics snapshot, both functions of the run's inputs,
// keyed by (scenario, config hash, commit) and addressed by a content
// hash over its payload.
//
// The storage format extends internal/perfdb's cache idiom: only
// map-free mirror structs are gob-coded (gob serialises map iteration
// order, which is random), rows and entries are stored in fixed order,
// and files are written via atomic rename — so identical payloads
// produce byte-identical files, and the content hash is a pure function
// of the run's results. Two runs with equal results collide into one
// file, which is exactly the dedup a results database wants.
//
// On top of the store sits Diff: per-cell and per-metric deltas with
// relative tolerance. Benchmark timings are not results of the inputs
// and are never stored: ParseBench reads `go test -bench` output, and
// Gate compares a parent's and a change's benchmark samples taken in
// alternating pairs on one machine (perf/gate.sh, the perf gate CI
// enforces).
package resultdb

import (
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ErrCorrupt marks a record file whose payload cannot be decoded — a
// truncated write, bit rot, or plain garbage under a .gob name. Get
// wraps it into the returned error (test with errors.Is), so callers
// iterating a store can skip the damaged file with a warning instead of
// aborting: one bad record must not take the whole database down.
var ErrCorrupt = errors.New("corrupt record")

// Version is the record schema version; bump it when the gob layout
// changes (mismatching files are reported, not silently misread).
const Version = 1

// Table is a map-free scenario table: the CSV header and the canonical
// cell strings, exactly the bytes scenario.Table writes.
type Table struct {
	Name   string
	Header []string
	Rows   [][]string
}

// MetricRow is one metrics-snapshot row with its canonical value bytes.
type MetricRow struct {
	Metric, Kind, Field, Value string
}

// Bench is one benchmark result in `go test -bench` terms, as
// ParseBench reads it and Gate compares it.
type Bench struct {
	Name        string
	Runs        int
	NsPerOp     float64
	BytesPerOp  float64 // -1 when the line carried no B/op column
	AllocsPerOp float64 // -1 when the line carried no allocs/op column
}

// Record is one stored run. Scenario, ConfigHash and Commit form the
// logical key; the content hash over Tables and Metrics is the physical
// address. Note and When are annotations: they ride along but are
// excluded from the content hash, so re-recording an identical run at a
// later time still dedups.
type Record struct {
	Version    int
	Scenario   string
	ConfigHash string
	Commit     string
	When       string // RFC 3339, informational only
	Note       string // free-form annotation, informational only
	Tables     []Table
	Metrics    []MetricRow
}

// ContentHash returns the FNV-64a hash of the record's payload (tables
// and metrics, not the annotations), the content half of the file's
// address. Every field is fed with explicit separators in slice order,
// so the hash is a pure function of the results.
func (r *Record) ContentHash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d|%s|%s|%s|", Version, r.Scenario, r.ConfigHash, r.Commit)
	for _, t := range r.Tables {
		fmt.Fprintf(h, "T%s|%d|", t.Name, len(t.Header))
		for _, c := range t.Header {
			fmt.Fprintf(h, "%s|", c)
		}
		for _, row := range t.Rows {
			for _, cell := range row {
				fmt.Fprintf(h, "%s|", cell)
			}
			fmt.Fprint(h, ";")
		}
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(h, "M%s|%s|%s|%s|", m.Metric, m.Kind, m.Field, m.Value)
	}
	return h.Sum64()
}

// short truncates a hex-ish token for the file name, keeping names
// readable while the full values live inside the record.
func short(s string, n int) string {
	s = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		}
		return '-'
	}, s)
	if s == "" {
		s = "none"
	}
	if len(s) > n {
		s = s[:n]
	}
	return s
}

// FileName derives the record's file name:
// <scenario>_<cfg8>_<commit8>_<content16>.gob — the logical key up
// front for humans, the content hash at the end for addressing.
func (r *Record) FileName() string {
	return fmt.Sprintf("%s_%s_%s_%016x.gob",
		short(r.Scenario, 32), short(r.ConfigHash, 8), short(r.Commit, 8), r.ContentHash())
}

// Store is a directory of records.
type Store struct{ Dir string }

// Open returns the store over the existing directory dir. Opening
// never creates it, so a mistyped path is an error (wrapping
// fs.ErrNotExist when dir is absent), not an empty store; a writer
// creates the directory first.
func Open(dir string) (*Store, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("resultdb: open store: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("resultdb: %s is not a directory", dir)
	}
	return &Store{Dir: dir}, nil
}

// Put writes the record (gob, atomic rename) and returns its file name.
// Records are immutable: an existing file with the same address is
// already byte-identical, so Put leaves it alone.
func (s *Store) Put(r *Record) (string, error) {
	r.Version = Version
	name := r.FileName()
	path := filepath.Join(s.Dir, name)
	if _, err := os.Stat(path); err == nil {
		return name, nil
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", fmt.Errorf("resultdb: %w", err)
	}
	if err := gob.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", fmt.Errorf("resultdb: encode %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("resultdb: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", fmt.Errorf("resultdb: %w", err)
	}
	return name, nil
}

// Get reads one record by exact file name. Decode failures come back
// wrapped in ErrCorrupt; a missing file or a schema-version mismatch is
// a distinct error (the file is intact, just absent or from another
// era).
func (s *Store) Get(name string) (*Record, error) {
	f, err := os.Open(filepath.Join(s.Dir, name))
	if err != nil {
		return nil, fmt.Errorf("resultdb: %w", err)
	}
	defer f.Close()
	var r Record
	if err := gob.NewDecoder(f).Decode(&r); err != nil {
		return nil, fmt.Errorf("resultdb: decode %s: %w: %w", name, ErrCorrupt, err)
	}
	if r.Version != Version {
		return nil, fmt.Errorf("resultdb: %s has schema version %d, want %d", name, r.Version, Version)
	}
	return &r, nil
}

// hashToken extracts the content-hash token from a record file name —
// the final _<hex>.gob segment of the FileName layout. Empty when the
// name carries no underscore-separated suffix.
func hashToken(name string) string {
	base := strings.TrimSuffix(name, ".gob")
	if i := strings.LastIndexByte(base, '_'); i >= 0 {
		return base[i+1:]
	}
	return ""
}

// List returns the store's record file names, newest first by
// modification time. Equal mtimes — routine on coarse-timestamp
// filesystems and for records written in one burst — tie-break by the
// record's content hash, then by full name, so the order is total and
// stable no matter how the files landed on disk; `latest~N` references
// and trend walks then resolve identically everywhere.
func (s *Store) List() ([]string, error) {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		return nil, fmt.Errorf("resultdb: %w", err)
	}
	type stamped struct {
		name string
		mod  int64
	}
	var recs []stamped
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".gob") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		recs = append(recs, stamped{e.Name(), info.ModTime().UnixNano()})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].mod != recs[j].mod {
			return recs[i].mod > recs[j].mod
		}
		if hi, hj := hashToken(recs[i].name), hashToken(recs[j].name); hi != hj {
			return hi < hj
		}
		return recs[i].name < recs[j].name
	})
	names := make([]string, len(recs))
	for i, r := range recs {
		names[i] = r.name
	}
	return names, nil
}

// Resolve maps a user-supplied reference to a record file name:
// "latest" (or "latest~N") walks the List order; anything else must
// prefix-match exactly one stored name (the ".gob" suffix is optional).
func (s *Store) Resolve(ref string) (string, error) {
	names, err := s.List()
	if err != nil {
		return "", err
	}
	if ref == "latest" || strings.HasPrefix(ref, "latest~") {
		n := 0
		if rest, ok := strings.CutPrefix(ref, "latest~"); ok {
			if n, err = strconv.Atoi(rest); err != nil || n < 0 {
				return "", fmt.Errorf("resultdb: bad reference %q (want latest~N with N an integer >= 0)", ref)
			}
		}
		if n >= len(names) {
			return "", fmt.Errorf("resultdb: %q refers %d back but the store holds %d records", ref, n, len(names))
		}
		return names[n], nil
	}
	ref = strings.TrimSuffix(ref, ".gob")
	var hits []string
	for _, n := range names {
		if strings.HasPrefix(n, ref) {
			hits = append(hits, n)
		}
	}
	switch len(hits) {
	case 1:
		return hits[0], nil
	case 0:
		return "", fmt.Errorf("resultdb: no record matches %q", ref)
	default:
		sort.Strings(hits)
		return "", fmt.Errorf("resultdb: %q is ambiguous (%s)", ref, strings.Join(hits, ", "))
	}
}
