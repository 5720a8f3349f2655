package farm

import (
	"math/rand"
	"testing"

	"symbiosched/internal/eventsim"
)

// mergeScanReference is the pre-loser-tree merge, kept verbatim as the
// reference implementation: a linear scan over every stream head per
// emitted completion, O(k) per completion. FuzzLoserTreeMerge pins the
// tree's emission order index-identical to this scan.
func mergeScanReference(lists [][]eventsim.Completion, gbase []int, pos []int, emit func(eventsim.Completion)) {
	for i := range lists {
		pos[i] = 0
	}
	for {
		best := -1
		var bestT float64
		bestG := 0
		for i := range lists {
			if pos[i] >= len(lists[i]) {
				continue
			}
			c := lists[i][pos[i]]
			g := gbase[i] + c.Server
			if best < 0 || c.T < bestT || (c.T == bestT && g < bestG) {
				best, bestT, bestG = i, c.T, g
			}
		}
		if best < 0 {
			return
		}
		emit(lists[best][pos[best]])
		pos[best]++
	}
}

// mergeCase builds k completion streams with tie-heavy timestamps: times
// are drawn from a coarse 1/8 grid so cross-shard ties are the norm, and
// each stream is generated directly in (T, local server) order the way a
// Group emits it. gbase is strictly increasing with random shard widths.
func mergeCase(rng *rand.Rand, k, maxLen int) (lists [][]eventsim.Completion, gbase []int) {
	lists = make([][]eventsim.Completion, k)
	gbase = make([]int, k)
	next := 0
	for s := 0; s < k; s++ {
		gbase[s] = next
		width := 1 + rng.Intn(4)
		next += width
		n := rng.Intn(maxLen + 1)
		t := float64(rng.Intn(4)) / 8
		for e := 0; e < n; e++ {
			// Nondecreasing times; on equal times the local index must
			// increase, matching the (time, server index) order AdvanceTo
			// produces. Start a fresh index run whenever time advances.
			var srv int
			if e > 0 && lists[s][e-1].T == t {
				srv = lists[s][e-1].Server + 1
				if srv >= width {
					t += float64(1+rng.Intn(8)) / 8
					srv = rng.Intn(width)
				}
			} else {
				srv = rng.Intn(width)
			}
			lists[s] = append(lists[s], eventsim.Completion{T: t, Server: srv})
			if rng.Intn(3) == 0 {
				t += float64(rng.Intn(16)) / 8
			}
		}
	}
	return lists, gbase
}

func mergeKey(c eventsim.Completion, gbase int) (float64, int) {
	return c.T, gbase + c.Server
}

// TestLoserTreeMergeDirected walks the tree through every small k,
// including the degenerate single-stream and all-empty shapes, against
// the scan reference.
func TestLoserTreeMergeDirected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var m slabMerger
	for k := 1; k <= 12; k++ {
		for trial := 0; trial < 50; trial++ {
			lists, gbase := mergeCase(rng, k, 6)
			var want []eventsim.Completion
			pos := make([]int, k)
			mergeScanReference(lists, gbase, pos, func(c eventsim.Completion) {
				want = append(want, c)
			})
			m.reset(lists, gbase)
			for i, w := range want {
				c, ok := m.next()
				if !ok {
					t.Fatalf("k=%d trial=%d: tree exhausted at %d of %d", k, trial, i, len(want))
				}
				if c != w {
					wt, wg := mergeKey(w, 0)
					t.Fatalf("k=%d trial=%d: emission %d: tree %+v vs scan %+v (t=%v g=%v)",
						k, trial, i, c, w, wt, wg)
				}
			}
			if c, ok := m.next(); ok {
				t.Fatalf("k=%d trial=%d: tree emitted extra %+v", k, trial, c)
			}
		}
	}
}

// TestLoserTreeMergeReuse pins the scratch-reuse contract: one merger
// re-reset across differently sized stream sets must stay exact — the
// slab loop resets it every slab with whatever shard subset is active.
func TestLoserTreeMergeReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var m slabMerger
	for _, k := range []int{8, 2, 13, 1, 5} {
		lists, gbase := mergeCase(rng, k, 10)
		var want, got []eventsim.Completion
		pos := make([]int, k)
		mergeScanReference(lists, gbase, pos, func(c eventsim.Completion) { want = append(want, c) })
		m.reset(lists, gbase)
		for {
			c, ok := m.next()
			if !ok {
				break
			}
			got = append(got, c)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d emissions, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d: emission %d: %+v vs %+v", k, i, got[i], want[i])
			}
		}
	}
}

// FuzzLoserTreeMerge drives random shard counts and tie-heavy
// timestamps through the loser tree and demands index-identical
// emission order against the verbatim pre-tree linear scan.
func FuzzLoserTreeMerge(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(4))
	f.Add(uint64(7), uint8(64), uint8(3))
	f.Add(uint64(42), uint8(1), uint8(9))
	f.Add(uint64(9000), uint8(17), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, kRaw, maxLen uint8) {
		k := int(kRaw%96) + 1
		rng := rand.New(rand.NewSource(int64(seed)))
		lists, gbase := mergeCase(rng, k, int(maxLen%12))
		var want []eventsim.Completion
		pos := make([]int, k)
		mergeScanReference(lists, gbase, pos, func(c eventsim.Completion) { want = append(want, c) })
		var m slabMerger
		m.reset(lists, gbase)
		for i, w := range want {
			c, ok := m.next()
			if !ok {
				t.Fatalf("tree exhausted at %d of %d", i, len(want))
			}
			if c != w {
				t.Fatalf("emission %d: tree %+v vs scan %+v", i, c, w)
			}
		}
		if c, ok := m.next(); ok {
			t.Fatalf("tree emitted extra %+v", c)
		}
	})
}
