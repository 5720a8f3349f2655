package perfdb

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"symbiosched/internal/runner"
	"symbiosched/internal/uarch"
	"symbiosched/internal/workload"
)

// gobBytes serialises a table the same way Save does, for bit-level
// comparisons.
func gobBytes(t *testing.T, tab *Table) []byte {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "t.gob")
	if err := tab.Save(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBuildDeterministicAcrossParallelism(t *testing.T) {
	suite := miniSuite(t)
	model := SMTModel{Machine: uarch.DefaultSMT()}
	ref, err := BuildWith(context.Background(), runner.Config{Parallelism: 1}, model, suite)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := gobBytes(t, ref)
	for _, p := range []int{2, 8} {
		tab, err := BuildWith(context.Background(), runner.Config{Parallelism: p}, model, suite)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Solo, tab.Solo) {
			t.Fatalf("p=%d: solo rates differ: %v vs %v", p, ref.Solo, tab.Solo)
		}
		if !reflect.DeepEqual(ref.byRank, tab.byRank) {
			t.Fatalf("p=%d: entries differ from sequential build", p)
		}
		if !bytes.Equal(refBytes, gobBytes(t, tab)) {
			t.Fatalf("p=%d: serialised table not bit-identical to sequential build", p)
		}
	}
}

func TestCacheRoundTrip(t *testing.T) {
	suite := miniSuite(t)
	tab := Build(SMTModel{Machine: uarch.DefaultSMT()}, suite)
	path := filepath.Join(t.TempDir(), "table.gob")
	if err := tab.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.name != tab.name || got.k != tab.k {
		t.Fatalf("identity mismatch: (%q, %d) vs (%q, %d)", got.name, got.k, tab.name, tab.k)
	}
	if !reflect.DeepEqual(got.suite, tab.suite) {
		t.Fatal("suite profiles differ after round trip")
	}
	if !reflect.DeepEqual(got.Solo, tab.Solo) {
		t.Fatal("solo rates differ after round trip")
	}
	if !reflect.DeepEqual(got.byRank, tab.byRank) {
		t.Fatal("entries differ after round trip")
	}
	// Bit-identical re-serialisation: Save(Load(Save(t))) == Save(t).
	if !bytes.Equal(gobBytes(t, tab), gobBytes(t, got)) {
		t.Fatal("re-serialised table not bit-identical")
	}
}

func TestLoadOrBuild(t *testing.T) {
	suite := miniSuite(t)
	model := SMTModel{Machine: uarch.DefaultSMT()}
	dir := t.TempDir()
	ctx := context.Background()

	built, hit, err := LoadOrBuild(ctx, runner.Config{}, model, suite, dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first call reported a cache hit on an empty directory")
	}
	cached, hit, err := LoadOrBuild(ctx, runner.Config{}, model, suite, dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second call missed the cache")
	}
	if !reflect.DeepEqual(built.byRank, cached.byRank) {
		t.Fatal("cached table differs from built table")
	}

	// A different fingerprint must not reuse the file.
	if _, hit, err = LoadOrBuild(ctx, runner.Config{}, model, suite, dir, "other"); err != nil {
		t.Fatal(err)
	} else if hit {
		t.Fatal("different fingerprint hit the cache")
	}

	// A shorter suite maps to a different key, not a false hit.
	if _, hit, err = LoadOrBuild(ctx, runner.Config{}, model, suite[:3], dir, "fp"); err != nil {
		t.Fatal(err)
	} else if hit {
		t.Fatal("different suite hit the cache")
	}
}

func TestLoadOrBuildSurvivesUnwritableDir(t *testing.T) {
	suite := miniSuite(t)
	model := SMTModel{Machine: uarch.DefaultSMT()}
	// A directory that cannot be created: the write-back fails, but the
	// built table must still be returned.
	dir := filepath.Join(os.DevNull, "sub")
	tab, hit, err := LoadOrBuild(context.Background(), runner.Config{}, model, suite, dir, "fp")
	if err != nil {
		t.Fatalf("write-back failure leaked as an error: %v", err)
	}
	if hit {
		t.Fatal("impossible cache hit")
	}
	if tab == nil || tab.Size() == 0 {
		t.Fatal("built table was discarded on write-back failure")
	}
}

func TestLoadRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.gob")
	if err := os.WriteFile(path, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load accepted a corrupt file")
	}
}

func TestLoadRejectsVersionSkew(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(f).Encode(tableGob{Version: cacheVersion + 1}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Load(path); err == nil {
		t.Fatal("Load accepted a future cache version")
	}
}

// encodeGob serialises g exactly as Save would.
func encodeGob(tb testing.TB, g tableGob) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// corruptTable is a well-formed gob encoding of a semantically corrupt
// table, with a fragment of the error Load must report for it.
type corruptTable struct {
	name string
	data []byte
	want string
}

// corruptTables derives corrupt tables from the mini-suite SMT table.
// Each mutation replaces slices instead of writing through them, so the
// shared table stays intact.
func corruptTables(tb testing.TB) []corruptTable {
	tb.Helper()
	valid := testTable(tb).toGob()
	het := slices.IndexFunc(valid.Entries, func(e entryGob) bool { return e.Cos.Heterogeneity() == 4 })
	var out []corruptTable
	add := func(name, want string, f func(g *tableGob, e *entryGob)) {
		g := valid
		g.Entries = slices.Clone(valid.Entries)
		f(&g, &g.Entries[het])
		out = append(out, corruptTable{name, encodeGob(tb, g), want})
	}
	add("type 300", "outside the 4-type suite", func(g *tableGob, _ *entryGob) { g.Entries[0].Cos = workload.Coschedule{300} })
	add("9-slot coschedule", "has 9 slots", func(g *tableGob, _ *entryGob) { g.Entries[0].Cos = make(workload.Coschedule, 9) })
	add("K=0, no entries", "K = 0", func(g *tableGob, _ *entryGob) { g.K, g.Entries = 0, nil })
	add("K=9", "K = 9", func(g *tableGob, _ *entryGob) { g.K = 9 })
	add("missing size class", "entries, want", func(g *tableGob, _ *entryGob) { g.K = 3 })
	add("empty suite", "suite of 0", func(g *tableGob, _ *entryGob) { g.Suite, g.Solo, g.Entries = nil, nil, nil })
	add("short solo", "3 solo IPCs", func(g *tableGob, _ *entryGob) { g.Solo = g.Solo[:3] })
	add("NaN solo", "solo IPC NaN", func(g *tableGob, _ *entryGob) { g.Solo = []float64{math.NaN(), 1, 1, 1} })
	add("negative type", "type -1 outside", func(g *tableGob, _ *entryGob) { g.Entries[0].Cos = workload.Coschedule{-1} })
	add("empty coschedule", "has 0 slots", func(g *tableGob, _ *entryGob) { g.Entries[0].Cos = nil })
	add("non-canonical", "not canonical", func(_ *tableGob, e *entryGob) { e.Cos = workload.Coschedule{3, 2, 1, 0} })
	add("short SlotIPC", "3 slot IPCs", func(_ *tableGob, e *entryGob) { e.SlotIPC = e.SlotIPC[:3] })
	add("types mismatch", "want types", func(_ *tableGob, e *entryGob) { e.Types = e.Types[1:] })
	add("short WIPCs", "(3 values)", func(_ *tableGob, e *entryGob) { e.WIPCs = e.WIPCs[1:] })
	add("infinite WIPC", "rate +Inf", func(_ *tableGob, e *entryGob) {
		e.WIPCs = slices.Clone(e.WIPCs)
		e.WIPCs[2] = math.Inf(1)
	})
	add("zero InstTP", "rate 0", func(_ *tableGob, e *entryGob) { e.InstTP = 0 })
	add("duplicate entry", "duplicate coschedule", func(g *tableGob, _ *entryGob) { g.Entries[1] = g.Entries[0] })
	add("missing entry", "entries, want", func(g *tableGob, _ *entryGob) { g.Entries = g.Entries[1:] })
	add("extra entry", "entries, want", func(g *tableGob, _ *entryGob) { g.Entries = append(g.Entries, g.Entries[0]) })
	return out
}

// TestLoadRejectsInvalidTable pins that Load reports a well-formed gob
// describing a broken table as an error naming the defect instead of
// panicking, and that LoadOrBuild treats such a file as a miss and
// rebuilds over it.
func TestLoadRejectsInvalidTable(t *testing.T) {
	suite := miniSuite(t)
	model := SMTModel{Machine: uarch.DefaultSMT()}
	dir := t.TempDir()
	path := filepath.Join(dir, CacheKey(model, suite, "fp"))
	for _, c := range corruptTables(t) {
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Load error %v, want one containing %q", c.name, err, c.want)
			continue
		}
		tab, hit, err := LoadOrBuild(context.Background(), runner.Config{}, model, suite, dir, "fp")
		if err != nil || hit {
			t.Errorf("%s: LoadOrBuild = (hit %v, err %v), want a rebuilt miss", c.name, hit, err)
			continue
		}
		if !reflect.DeepEqual(tab.byRank, testTable(t).byRank) {
			t.Errorf("%s: rebuilt table differs from a fresh build", c.name)
		}
	}
}

// FuzzTableLoad feeds arbitrary bytes to the cache decoder: it must
// return an error or a table whose derived rows agree with its entries,
// never panic.
func FuzzTableLoad(f *testing.F) {
	valid := encodeGob(f, testTable(f).toGob())
	f.Add(valid)
	for _, n := range []int{0, 1, 16, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	for _, c := range corruptTables(f)[:3] { // type 300, 9 slots, K = 0
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := read(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkRows(t, tab)
	})
}
