package resultdb

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func sampleRecord() *Record {
	return &Record{
		Scenario:   "farm",
		ConfigHash: "deadbeef",
		Commit:     "0123456789abcdef",
		When:       "2026-01-01T00:00:00Z",
		Tables: []Table{{
			Name:   "farm",
			Header: []string{"dispatcher", "load", "mean_turnaround"},
			Rows: [][]string{
				{"random", "0.5", "1.25"},
				{"li", "0.5", "1.10"},
			},
		}},
		Metrics: []MetricRow{
			{"sched_memo_hit", "counter", "count", "120"},
			{"server_busy", "gauge", "mean", "1.5"},
		},
	}
}

func TestPutGetRoundtrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRecord()
	name, err := st.Put(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if got.ContentHash() != rec.ContentHash() {
		t.Fatal("roundtrip changed the content hash")
	}
	if len(got.Tables) != 1 || got.Tables[0].Rows[1][2] != "1.10" {
		t.Fatalf("roundtrip lost table data: %+v", got.Tables)
	}
	// Identical payload with different annotations dedups to the same
	// address.
	again := sampleRecord()
	again.Note = "re-recorded"
	name2, err := st.Put(again)
	if err != nil {
		t.Fatal(err)
	}
	if name2 != name {
		t.Fatalf("identical payloads stored at %s and %s, want one address", name, name2)
	}
}

func TestContentHashChangesWithPayload(t *testing.T) {
	a, b := sampleRecord(), sampleRecord()
	b.Tables[0].Rows[0][2] = "1.26"
	if a.ContentHash() == b.ContentHash() {
		t.Fatal("different payloads must hash differently")
	}
	c := sampleRecord()
	c.Note, c.When = "annotation", "2030-01-01T00:00:00Z"
	if a.ContentHash() != c.ContentHash() {
		t.Fatal("annotations must not affect the content hash")
	}
}

func TestResolve(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := sampleRecord()
	n1, err := st.Put(first)
	if err != nil {
		t.Fatal(err)
	}
	second := sampleRecord()
	second.Tables[0].Rows[0][2] = "9.99"
	n2, err := st.Put(second)
	if err != nil {
		t.Fatal(err)
	}
	// List orders by mtime; make the second strictly newer.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(st.Dir, n1), old, old); err != nil {
		t.Fatal(err)
	}

	latest, err := st.Resolve("latest")
	if err != nil {
		t.Fatal(err)
	}
	if latest != n2 {
		t.Fatalf("latest = %s, want %s", latest, n2)
	}
	prev, err := st.Resolve("latest~1")
	if err != nil {
		t.Fatal(err)
	}
	if prev != n1 {
		t.Fatalf("latest~1 = %s, want %s", prev, n1)
	}
	// A full name resolves to itself; the shared scenario prefix is
	// ambiguous.
	if got, err := st.Resolve(n2); err != nil || got != n2 {
		t.Fatalf("Resolve(%s) = %s, %v", n2, got, err)
	}
	if _, err := st.Resolve("farm"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("shared prefix should be ambiguous, got %v", err)
	}
	if _, err := st.Resolve("nosuch"); err == nil {
		t.Fatal("unknown reference should fail")
	}
	// N is an integer and nothing else: a trailing suffix is not
	// dropped to read as latest~0 or latest~1.
	for _, ref := range []string{"latest~0junk", "latest~1.5", "latest~", "latest~-1"} {
		if got, err := st.Resolve(ref); err == nil {
			t.Errorf("Resolve(%q) = %s, want an error", ref, got)
		}
	}
}

// TestListEqualMtimeDeterministic pins the List tie-break: records
// whose mtimes collide — one burst of writes on a coarse-timestamp
// filesystem — must come back ordered by content-hash token, then full
// name, no matter what order the directory happens to yield. Without
// this, `latest~N` and trend walks resolve differently across machines.
func TestListEqualMtimeDeterministic(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for i := 0; i < 5; i++ {
		rec := sampleRecord()
		rec.Commit = strings.Repeat(string(rune('a'+i)), 8)
		n, err := st.Put(rec)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, n)
	}
	when := time.Now().Add(-time.Minute)
	for _, n := range names {
		if err := os.Chtimes(filepath.Join(st.Dir, n), when, when); err != nil {
			t.Fatal(err)
		}
	}
	want := append([]string(nil), names...)
	sort.Slice(want, func(i, j int) bool {
		if hi, hj := hashToken(want[i]), hashToken(want[j]); hi != hj {
			return hi < hj
		}
		return want[i] < want[j]
	})
	for trial := 0; trial < 3; trial++ {
		got, err := st.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("List returned %d names, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: List[%d] = %s, want %s (hash-token order)", trial, i, got[i], want[i])
			}
		}
	}
}

// TestDiffIdenticalAndInjectedRegression is the acceptance pin: zero
// deltas for identical runs, and a 10% injected drift is detected at
// a 5% tolerance.
func TestDiffIdenticalAndInjectedRegression(t *testing.T) {
	a, b := sampleRecord(), sampleRecord()
	if ds := Diff(a, b, DiffOptions{}); len(ds) != 0 {
		t.Fatalf("identical records diff to %d deltas: %s", len(ds), FormatDeltas(ds))
	}

	// Inject a 10% drift into a table cell and a metric.
	b.Tables[0].Rows[0][2] = "1.375" // 1.25 * 1.1
	b.Metrics[0].Value = "132"       // 120 * 1.1

	ds := Diff(a, b, DiffOptions{Tol: 0.05})
	if len(ds) != 2 {
		t.Fatalf("want 2 deltas beyond 5%%, got %d:\n%s", len(ds), FormatDeltas(ds))
	}
	for _, d := range ds {
		if math.Abs(d.Rel-0.10) > 1e-6 {
			t.Errorf("%s %s: rel = %v, want ~0.10", d.Kind, d.Where, d.Rel)
		}
	}
	// At a 15% tolerance the same pair reports clean.
	if ds := Diff(a, b, DiffOptions{Tol: 0.15}); len(ds) != 0 {
		t.Fatalf("10%% drift beyond 15%% tolerance: %s", FormatDeltas(ds))
	}
}

func TestParseBench(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: symbiosched/internal/sched
cpu: AMD EPYC
BenchmarkSchedulerSelect/MAXIT/depth=32-16         	 8246792	       143.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkSchedulerSelect/SRPT/depth=32-16          	  918222	      1300 ns/op	       0 B/op	       0 allocs/op
BenchmarkFarmSharded/servers=8192-16               	    5000	    250000 ns/op
PASS
ok  	symbiosched/internal/sched	3.2s
`
	bs, err := ParseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 3 {
		t.Fatalf("parsed %d benches, want 3", len(bs))
	}
	if bs[0].Name != "BenchmarkSchedulerSelect/MAXIT/depth=32" {
		t.Fatalf("name = %q (proc suffix must be stripped)", bs[0].Name)
	}
	if bs[0].NsPerOp != 143.1 || bs[0].AllocsPerOp != 0 || bs[0].Runs != 8246792 {
		t.Fatalf("bench 0 = %+v", bs[0])
	}
	if bs[2].Name != "BenchmarkFarmSharded/servers=8192" || bs[2].AllocsPerOp != -1 {
		t.Fatalf("bench 2 = %+v (missing columns must read -1)", bs[2])
	}
}

// TestGetCorruptRecord pins the lenient-loading contract: a truncated
// or garbage .gob file fails with an error wrapping ErrCorrupt (so
// store iterators can skip it), while an intact file from a different
// schema version fails with a plain version error — the bytes are fine.
func TestGetCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	name, err := st.Put(sampleRecord())
	if err != nil {
		t.Fatal(err)
	}

	// Truncate the written record to half its length: the gob stream
	// ends mid-value.
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	trunc := "farm_trunc_00000000_0000000000000000.gob"
	if err := os.WriteFile(filepath.Join(dir, trunc), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(trunc); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated record: Get = %v, want ErrCorrupt", err)
	}

	// Plain garbage under a .gob name is equally corrupt.
	junk := "farm_junk_00000000_0000000000000000.gob"
	if err := os.WriteFile(filepath.Join(dir, junk), []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(junk); !errors.Is(err, ErrCorrupt) {
		t.Errorf("garbage record: Get = %v, want ErrCorrupt", err)
	}

	// List still surfaces every .gob file, damaged or not: skipping is
	// the reader's decision, not the directory scan's.
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Errorf("List = %v, want 3 entries", names)
	}

	// A future-version record decodes fine and must NOT read as corrupt.
	future := sampleRecord()
	fname, err := st.Put(future)
	if err != nil {
		t.Fatal(err)
	}
	_ = fname
	fut := &Record{Version: Version + 1, Scenario: "x"}
	fpath := filepath.Join(dir, "x_future_00000000_0000000000000000.gob")
	f, err := os.Create(fpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(f).Encode(fut); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, err = st.Get(filepath.Base(fpath))
	if err == nil || errors.Is(err, ErrCorrupt) {
		t.Errorf("version-mismatch record: Get = %v, want a non-corrupt version error", err)
	}
	// The good record still loads cleanly alongside the damage.
	if _, err := st.Get(name); err != nil {
		t.Errorf("intact record no longer loads: %v", err)
	}
}

// TestParseBenchRejectsCorruptValues pins that bench output carrying a
// NaN, infinite or negative value is an error naming the line, not a
// record.
func TestParseBenchRejectsCorruptValues(t *testing.T) {
	for _, bad := range []string{
		"BenchmarkX-8  100  NaN ns/op",
		"BenchmarkX-8  100  +Inf ns/op",
		"BenchmarkX-8  100  -5 ns/op",
		"BenchmarkX-8  100  5 ns/op  -1 B/op",
		"BenchmarkX-8  100  5 ns/op  0 B/op  Inf allocs/op",
		"BenchmarkX-8  -100  5 ns/op",
	} {
		out := "goos: linux\nBenchmarkOK-8  10  7 ns/op\n" + bad + "\nPASS\n"
		bs, err := ParseBench(strings.NewReader(out))
		if err == nil {
			t.Errorf("%q: parsed %+v, want an error", bad, bs)
			continue
		}
		if !strings.Contains(err.Error(), "line 3") {
			t.Errorf("%q: error %q does not name line 3", bad, err)
		}
	}
	// Custom b.ReportMetric columns are not recorded and may be signed or
	// non-finite: they never make a line corrupt.
	for _, good := range []string{
		"BenchmarkX-8  1  5 ns/op  -0.4 markovVsSim%",
		"BenchmarkX-8  1  5 ns/op  -12 queueDelayCycles  0 B/op  0 allocs/op",
		"BenchmarkX-8  1  NaN corr  5 ns/op",
	} {
		bs, err := ParseBench(strings.NewReader(good + "\n"))
		if err != nil {
			t.Errorf("%q: %v", good, err)
			continue
		}
		if len(bs) != 1 || bs[0].NsPerOp != 5 {
			t.Errorf("%q: parsed %+v, want one bench at 5 ns/op", good, bs)
		}
	}
}

// FuzzParseBench feeds arbitrary text to ParseBench: it must never panic,
// and whatever it accepts carries only finite, non-negative timings and
// counts (B/op and allocs/op may also read -1, the absent marker).
func FuzzParseBench(f *testing.F) {
	f.Add("BenchmarkSchedulerSelect/MAXIT/depth=32-16  8246792  143.1 ns/op  0 B/op  0 allocs/op\n")
	f.Add("BenchmarkFarmSharded/servers=8192-16  5000  250000 ns/op\nPASS\n")
	f.Add("BenchmarkX-8 100 NaN ns/op\n")
	f.Add("BenchmarkX-8 100 -5 ns/op\nBenchmarkY 1 1e400 ns/op\n")
	f.Add("goos: linux\nBenchmarkZ-2 3 0x1p-2 ns/op 7 widgets/op\nok\n")
	f.Fuzz(func(t *testing.T, in string) {
		bs, err := ParseBench(strings.NewReader(in))
		if err != nil {
			return
		}
		finite := func(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }
		for _, b := range bs {
			if b.Runs < 0 || !finite(b.NsPerOp) ||
				!(finite(b.BytesPerOp) || b.BytesPerOp == -1) ||
				!(finite(b.AllocsPerOp) || b.AllocsPerOp == -1) {
				t.Fatalf("ParseBench(%q) accepted %+v", in, b)
			}
		}
	})
}

// oldRecords are records the store wrote while it also held benchmark
// results, both from sampleRecord: the first with two benchmark
// results, the second without any.
var oldRecords = []string{
	"farm_deadbeef_01234567_edb0e8bcbd6ea94f.gob",
	"farm_deadbeef_01234567_fbbc8e97ffc351f1.gob",
}

// TestOldShapeRecordDecodes pins that those records still load: gob
// drops the benchmark list and the tables and metrics decode. A record
// without benchmark results fed them no bytes of its content hash, so
// it re-derives the file name it was stored under.
func TestOldShapeRecordDecodes(t *testing.T) {
	st, err := Open("testdata")
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecord()
	for _, name := range oldRecords {
		got, err := st.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Tables, want.Tables) || !reflect.DeepEqual(got.Metrics, want.Metrics) {
			t.Errorf("%s decoded to tables %+v, metrics %+v", name, got.Tables, got.Metrics)
		}
	}
	if got := want.FileName(); got != oldRecords[1] {
		t.Errorf("FileName = %s, want %s, the name it was stored under", got, oldRecords[1])
	}
}

// FuzzStoreGet feeds arbitrary bytes to Get as a record file: every
// input must end in a record or an error, never a panic, and Diff and
// FileName must not panic on whatever decodes.
func FuzzStoreGet(f *testing.F) {
	var good bytes.Buffer
	rec := sampleRecord()
	rec.Version = Version
	if err := gob.NewEncoder(&good).Encode(rec); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add(good.Bytes()[:good.Len()/2])
	old, err := os.ReadFile(filepath.Join("testdata", oldRecords[0]))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)
	st, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const name = "fuzz.gob"
		if err := os.WriteFile(filepath.Join(st.Dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := st.Get(name)
		if err != nil {
			return
		}
		rec.FileName()
		Diff(rec, rec, DiffOptions{})
		Diff(rec, sampleRecord(), DiffOptions{Tol: 0.05})
		Diff(sampleRecord(), rec, DiffOptions{})
	})
}
