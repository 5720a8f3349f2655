package perfdb

import (
	"context"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"symbiosched/internal/program"
	"symbiosched/internal/runner"
	"symbiosched/internal/workload"
)

// tableGob is the on-disk form of a Table. Only this mirror is gob-coded,
// keeping the in-memory representation free to change independently of
// the cache format (bump cacheVersion when the two diverge).
type tableGob struct {
	Version int
	Name    string
	K       int
	Suite   []program.Profile
	Solo    []float64
	Entries []entryGob
}

// entryGob is the on-disk Entry: the per-type WIPCs are stored sparsely,
// as parallel slices over the coschedule's distinct types in ascending
// order, so identical tables stay byte-identical on disk.
type entryGob struct {
	Cos     workload.Coschedule
	SlotIPC []float64
	Types   []int
	WIPCs   []float64
	InstTP  float64
}

func toEntryGob(e *Entry) entryGob {
	g := entryGob{Cos: e.Cos, SlotIPC: e.SlotIPC, InstTP: e.InstTP}
	for i, b := range e.Cos {
		if i == 0 || e.Cos[i-1] != b {
			g.Types = append(g.Types, b)
			g.WIPCs = append(g.WIPCs, e.wipc[b])
		}
	}
	return g
}

func (g entryGob) entry(n int) *Entry {
	e := &Entry{Cos: g.Cos, SlotIPC: g.SlotIPC, InstTP: g.InstTP, wipc: make([]float64, n)}
	for i, b := range g.Types {
		e.wipc[b] = g.WIPCs[i]
	}
	return e
}

// check validates one decoded entry of a table with k contexts over n
// types: a canonical coschedule of 1..k in-range slots, one positive
// finite IPC per slot, and one positive finite WIPC per distinct type,
// listed in ascending type order.
func (g entryGob) check(k, n int) error {
	c := g.Cos
	if len(c) < 1 || len(c) > k {
		return fmt.Errorf("coschedule %v has %d slots, want 1..%d", c, len(c), k)
	}
	var types []int
	for i, b := range c {
		if b < 0 || b >= n {
			return fmt.Errorf("coschedule %v: type %d outside the %d-type suite", c, b, n)
		}
		if i > 0 && c[i-1] > b {
			return fmt.Errorf("coschedule %v is not canonical", c)
		}
		if i == 0 || c[i-1] != b {
			types = append(types, b)
		}
	}
	if len(g.SlotIPC) != len(c) {
		return fmt.Errorf("coschedule %v: %d slot IPCs", c, len(g.SlotIPC))
	}
	if !slices.Equal(g.Types, types) || len(g.WIPCs) != len(types) {
		return fmt.Errorf("coschedule %v: WIPCs for types %v (%d values), want types %v",
			c, g.Types, len(g.WIPCs), types)
	}
	for _, r := range slices.Concat(g.SlotIPC, g.WIPCs, []float64{g.InstTP}) {
		if !rate(r) {
			return fmt.Errorf("coschedule %v: rate %v is not positive and finite", c, r)
		}
	}
	return nil
}

// rate reports whether x is a usable rate: positive and finite.
func rate(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// check validates a decoded table before anything is derived from it:
// K in 1..8 (the key's capacity), one positive finite solo IPC per suite
// profile, valid entries (entryGob.check), no duplicates, and every
// multiset of 1..K types present — the marginal rows read c+b for every
// stored c with fewer than K slots.
func (g *tableGob) check() error {
	n := len(g.Suite)
	switch {
	case g.K < 1 || g.K > 8:
		return fmt.Errorf("K = %d, want 1..8", g.K)
	case n < 1 || n > 256:
		return fmt.Errorf("suite of %d profiles, want 1..256", n)
	case len(g.Solo) != n:
		return fmt.Errorf("%d solo IPCs for a suite of %d", len(g.Solo), n)
	}
	for b, s := range g.Solo {
		if !rate(s) {
			return fmt.Errorf("solo IPC %v of type %d is not positive and finite", s, b)
		}
	}
	want := 0
	for s := 1; s <= g.K; s++ {
		want += workload.MultisetCount(n, s)
	}
	if len(g.Entries) != want {
		return fmt.Errorf("%d entries, want %d (every multiset of 1..%d of %d types)", len(g.Entries), want, g.K, n)
	}
	// With the count right, distinct valid entries are exactly the full set.
	seen := make(map[uint64]bool, len(g.Entries))
	for i, eg := range g.Entries {
		if err := eg.check(g.K, n); err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
		key := Key(eg.Cos)
		if seen[key] {
			return fmt.Errorf("entry %d: duplicate coschedule %v", i, eg.Cos)
		}
		seen[key] = true
	}
	return nil
}

const cacheVersion = 1

// Save writes the table to path (gob, atomic rename). Entries are written
// in ascending key order so identical tables produce identical files.
func (t *Table) Save(path string) error {
	g := t.toGob()
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(g); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("perfdb: encode %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// toGob returns the table's on-disk form.
func (t *Table) toGob() tableGob {
	return tableGob{
		Version: cacheVersion,
		Name:    t.name,
		K:       t.k,
		Suite:   t.suite,
		Solo:    t.Solo,
		Entries: t.sortedEntries(),
	}
}

// sortedEntries returns the entries ordered by coschedule key.
func (t *Table) sortedEntries() []entryGob {
	es := slices.Clone(t.byRank[1:])
	sort.Slice(es, func(i, j int) bool { return Key(es[i].Cos) < Key(es[j].Cos) })
	out := make([]entryGob, 0, len(es))
	for _, e := range es {
		out = append(out, toEntryGob(e))
	}
	return out
}

// Load reads a table previously written by Save. A file that does not
// decode, has another cache version or does not describe a complete,
// well-formed table is reported as an error.
func Load(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := read(f)
	if err != nil {
		return nil, fmt.Errorf("perfdb: load %s: %w", path, err)
	}
	return t, nil
}

// read decodes and validates one table written by Save.
func read(r io.Reader) (*Table, error) {
	var g tableGob
	if err := gob.NewDecoder(r).Decode(&g); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	if g.Version != cacheVersion {
		return nil, fmt.Errorf("cache version %d, want %d", g.Version, cacheVersion)
	}
	if err := g.check(); err != nil {
		return nil, err
	}
	t := newTable(g.Name, g.K, g.Suite, g.Solo)
	for _, eg := range g.Entries {
		t.byRank[t.Rank(eg.Cos)] = eg.entry(len(g.Suite))
	}
	t.recomputeMaxWIPC()
	t.deriveRows()
	return t, nil
}

// CacheKey derives a stable cache file name for a model + suite pair. The
// fingerprint must capture every machine parameter that influences rates
// (e.g. fmt.Sprintf("%+v", machine)); the suite profiles are hashed in
// full, so any profile change yields a different file.
func CacheKey(m Model, suite []program.Profile, fingerprint string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d|%s|%d|%s|", cacheVersion, m.Name(), m.Contexts(), fingerprint)
	for i := range suite {
		fmt.Fprintf(h, "%+v|", suite[i])
	}
	return fmt.Sprintf("perfdb-%016x.gob", h.Sum64())
}

// LoadOrBuild returns the cached table for (m, suite, fingerprint) from
// dir, or builds it with BuildWith and writes it back. An unreadable or
// mismatching cache file is treated as a miss and overwritten. The cache
// is best-effort: a failed write-back (full disk, lost permissions) does
// not discard the freshly built table — the build result is returned and
// only the persistence step is dropped. The bool reports whether the
// cache was hit.
func LoadOrBuild(ctx context.Context, rc runner.Config, m Model, suite []program.Profile, dir, fingerprint string) (*Table, bool, error) {
	path := filepath.Join(dir, CacheKey(m, suite, fingerprint))
	if t, err := Load(path); err == nil && t.matches(m, suite) {
		return t, true, nil
	}
	t, err := BuildWith(ctx, rc, m, suite)
	if err != nil {
		return nil, false, err
	}
	if err := os.MkdirAll(dir, 0o755); err == nil {
		_ = t.Save(path) // best-effort; the built table is the result
	}
	return t, false, nil
}

// matches sanity-checks a loaded table against the requesting model and
// suite (the hashed file name already encodes both; this guards against
// hand-renamed or corrupted files).
func (t *Table) matches(m Model, suite []program.Profile) bool {
	if t.name != m.Name() || t.k != m.Contexts() || len(t.suite) != len(suite) {
		return false
	}
	for i := range suite {
		if t.suite[i] != suite[i] {
			return false
		}
	}
	return true
}
