package perfdb

import (
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"symbiosched/internal/program"
	"symbiosched/internal/uarch"
	"symbiosched/internal/workload"
)

// miniSuite keeps table-building fast in tests.
func miniSuite(t testing.TB) []program.Profile {
	t.Helper()
	suite := program.Suite()
	return []program.Profile{suite[5], suite[7], suite[6], suite[1]} // hmmer, mcf, libq, calculix
}

var (
	tableOnce sync.Once
	tableSMT  *Table
)

func testTable(t testing.TB) *Table {
	t.Helper()
	tableOnce.Do(func() {
		tableSMT = Build(SMTModel{Machine: uarch.DefaultSMT()}, miniSuite(t))
	})
	return tableSMT
}

func TestBuildSize(t *testing.T) {
	tab := testTable(t)
	// Sizes 1..4 over 4 types: 4 + 10 + 20 + 35 = 69.
	want := 0
	for k := 1; k <= 4; k++ {
		want += workload.MultisetCount(4, k)
	}
	if tab.Size() != want {
		t.Errorf("table size %d, want %d", tab.Size(), want)
	}
	if tab.K() != 4 {
		t.Errorf("K = %d", tab.K())
	}
}

func TestSoloWIPCIsOne(t *testing.T) {
	tab := testTable(t)
	for b := range miniSuite(t) {
		c := workload.NewCoschedule(b)
		if w := tab.JobWIPC(c, b); w < 0.999 || w > 1.001 {
			t.Errorf("type %d solo WIPC = %v, want 1", b, w)
		}
	}
}

func TestInstTPIsSumOfTypeRates(t *testing.T) {
	tab := testTable(t)
	c := workload.NewCoschedule(0, 1, 2, 3)
	var sum float64
	for b := 0; b < 4; b++ {
		sum += tab.TypeRate(c, b)
	}
	if diff := sum - tab.InstTP(c); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("sum of type rates %v != InstTP %v (paper Eq. 1)", sum, tab.InstTP(c))
	}
}

func TestTypeRateCountsMultiplicity(t *testing.T) {
	tab := testTable(t)
	c := workload.NewCoschedule(1, 1, 0, 2)
	per := tab.JobWIPC(c, 1)
	if diff := tab.TypeRate(c, 1) - 2*per; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("TypeRate should be count * per-job WIPC")
	}
	if tab.TypeRate(c, 3) != 0 {
		t.Errorf("absent type should have zero rate")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	cases := []workload.Coschedule{
		workload.NewCoschedule(0),
		workload.NewCoschedule(0, 0, 0, 0),
		workload.NewCoschedule(1, 3, 5, 11),
		workload.NewCoschedule(2, 2),
	}
	seen := map[uint64]bool{}
	for _, c := range cases {
		k := Key(c)
		if seen[k] {
			t.Errorf("key collision for %v", c)
		}
		seen[k] = true
	}
	// Length must be encoded: [0] vs [0,0] differ.
	if Key(workload.NewCoschedule(0)) == Key(workload.NewCoschedule(0, 0)) {
		t.Error("keys must distinguish coschedule sizes")
	}
}

// TestRankIsDense pins the rank index: over suites of 1 to 5 types and K
// of 1 to 4, every multiset of 1..K types gets its own rank in
// 1..Size(), sizes included, the slot-by-slot fold agrees with Rank, and
// every built entry sits at its coschedule's rank.
func TestRankIsDense(t *testing.T) {
	suite := program.Suite()
	for n := 1; n <= 5; n++ {
		for k := 1; k <= 4; k++ {
			tab := Build(UniformModel{K: k}, suite[:n])
			seen := map[int]bool{}
			for s := 1; s <= k; s++ {
				for _, c := range workload.Multisets(n, s) {
					r, fold := tab.Rank(c), 0
					for i, b := range c {
						fold = tab.RankAppend(fold, i, b)
					}
					if r != fold || r < 1 || r > tab.Size() || seen[r] {
						t.Fatalf("n=%d K=%d: %v has rank %d (fold %d, size %d, seen %v)", n, k, c, r, fold, tab.Size(), seen[r])
					}
					seen[r] = true
					if e := tab.EntryByRank(r); !slices.Equal(e.Cos, c) {
						t.Fatalf("n=%d K=%d: rank %d holds %v, want %v", n, k, r, e.Cos, c)
					}
				}
			}
			if len(seen) != tab.Size() {
				t.Fatalf("n=%d K=%d: %d ranks for %d entries", n, k, len(seen), tab.Size())
			}
		}
	}
}

func TestEntryPanicsOnUnknown(t *testing.T) {
	tab := testTable(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-suite coschedule")
		}
	}()
	tab.Entry(workload.NewCoschedule(9, 9, 9, 9))
}

func TestJobWIPCPanicsOnAbsentType(t *testing.T) {
	tab := testTable(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for absent type")
		}
	}()
	tab.JobWIPC(workload.NewCoschedule(0, 0, 0, 0), 1)
}

func TestCloneAndOverrideIsolation(t *testing.T) {
	tab := testTable(t)
	clone := tab.Clone()
	c := workload.NewCoschedule(0, 1, 2, 3)
	orig := tab.JobWIPC(c, 0)
	// Equal-rate override preserving instTP.
	mean := tab.InstTP(c) / 4
	clone.Override(c, map[int]float64{0: mean, 1: mean, 2: mean, 3: mean})
	if got := clone.JobWIPC(c, 0); got != mean {
		t.Errorf("override not applied: %v, want %v", got, mean)
	}
	if diff := clone.InstTP(c) - tab.InstTP(c); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("equalising override changed instTP: %v vs %v", clone.InstTP(c), tab.InstTP(c))
	}
	if got := tab.JobWIPC(c, 0); got != orig {
		t.Errorf("override leaked into the original table")
	}
}

func TestOverrideValidation(t *testing.T) {
	tab := testTable(t).Clone()
	c := workload.NewCoschedule(0, 1, 2, 3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for override with missing type")
		}
	}()
	tab.Override(c, map[int]float64{0: 1}) // missing types 1..3
}

func TestModelAdapters(t *testing.T) {
	smt := SMTModel{Machine: uarch.DefaultSMT()}
	if smt.Contexts() != 4 || smt.Name() == "" {
		t.Errorf("SMTModel adapter broken: %d %q", smt.Contexts(), smt.Name())
	}
	quad := MulticoreModel{Machine: uarch.DefaultMulticore()}
	if quad.Contexts() != 4 || quad.Name() == "" {
		t.Errorf("MulticoreModel adapter broken")
	}
	suite := miniSuite(t)
	jobs := []*program.Profile{&suite[0], &suite[1]}
	if got := quad.SlotIPC(jobs); len(got) != 2 {
		t.Errorf("SlotIPC returned %d rates", len(got))
	}
}

// checkRows asserts that every marginal row of tab equals the two-probe
// formula over the table's public InstTP bit for bit: row[b] ==
// InstTP(c+b) - InstTP(c) for entries with fewer than K slots, no row for
// full entries, and idle[b] == InstTP({b}).
func checkRows(tb testing.TB, tab *Table) {
	tb.Helper()
	n := len(tab.Suite())
	for b, got := range tab.IdleMarginal() {
		if want := tab.InstTP(workload.NewCoschedule(b)); math.Float64bits(got) != math.Float64bits(want) {
			tb.Fatalf("idle row[%d] = %v, want InstTP({%d}) = %v", b, got, b, want)
		}
	}
	if len(tab.IdleMarginal()) != n {
		tb.Fatalf("idle row has %d elements for a %d-type suite", len(tab.IdleMarginal()), n)
	}
	for _, e := range tab.byRank[1:] {
		row := e.Marginal()
		if len(e.Cos) == tab.K() {
			if row != nil {
				tb.Fatalf("full coschedule %v has a marginal row", e.Cos)
			}
			continue
		}
		if len(row) != n {
			tb.Fatalf("coschedule %v: row of %d elements, want %d", e.Cos, len(row), n)
		}
		for b, got := range row {
			cand := workload.NewCoschedule(append(slices.Clone(e.Cos), b)...)
			want := tab.InstTP(cand) - tab.InstTP(e.Cos)
			if math.Float64bits(got) != math.Float64bits(want) {
				tb.Fatalf("row(%v)[%d] = %v, want InstTP(%v) - InstTP(%v) = %v", e.Cos, b, got, cand, e.Cos, want)
			}
		}
	}
}

// TestMarginalRowsMatchInstTP pins the precomputed marginal rows to the
// two-probe subtraction they replace, on the SMT, quad-core and uniform
// tables, after Clone, after an Override (the fairness counterfactual's
// equalisation, and one that moves InstTP), and after a Save/Load round
// trip.
func TestMarginalRowsMatchInstTP(t *testing.T) {
	suite := miniSuite(t)
	for _, tc := range []struct {
		name string
		tab  *Table
	}{
		{"smt", testTable(t)},
		{"quad", Build(MulticoreModel{Machine: uarch.DefaultMulticore()}, suite)},
		{"uniform", Build(UniformModel{K: 3}, suite)},
	} {
		tab := tc.tab
		t.Run(tc.name, func(t *testing.T) {
			checkRows(t, tab)
			clone := tab.Clone()
			checkRows(t, clone)

			// Equalise the heterogeneous K-coschedule, as core's fairness
			// counterfactual does: every type gets the mean WIPC.
			var full workload.Coschedule
			for b := range tab.K() {
				full = append(full, b)
			}
			mean := tab.InstTP(full) / float64(len(full))
			eq := map[int]float64{}
			for _, b := range full {
				eq[b] = mean
			}
			clone.Override(full, eq)
			// And one that moves a smaller entry's InstTP, which feeds its
			// own row, the rows one slot smaller and the idle row.
			for _, c := range []workload.Coschedule{workload.NewCoschedule(1, 2), workload.NewCoschedule(3)} {
				scaled := map[int]float64{}
				for _, b := range c {
					scaled[b] = 1.1 * clone.JobWIPC(c, b)
				}
				clone.Override(c, scaled)
			}
			checkRows(t, clone)
			checkRows(t, tab) // the original is untouched

			path := filepath.Join(t.TempDir(), "t.gob")
			if err := clone.Save(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			checkRows(t, loaded)
			if !reflect.DeepEqual(loaded.byRank, clone.byRank) || !reflect.DeepEqual(loaded.idle, clone.idle) {
				t.Fatal("loaded rows differ from the saved table's")
			}
		})
	}
}
