package eventsim

import (
	"math"
	"sort"
	"testing"

	"symbiosched/internal/stats"
)

// checkHeapLayout verifies the 4-ary heap's structure against the keys
// the caller stored: every node sits at the slot its position records,
// no child orders before its parent under (key, index), and exactly the
// finite keys are present.
func checkHeapLayout(t *testing.T, h *TimeHeap, keys []float64) {
	t.Helper()
	for p, x := range h.nodes {
		if int(h.pos[x.idx]) != p {
			t.Fatalf("pos/heap mismatch at slot %d", p)
		}
		for c := 4*p + 1; c <= 4*p+4 && c < len(h.nodes); c++ {
			if h.nodes[c].less(x) {
				t.Fatalf("heap order violated at slot %d (child slot %d)", p, c)
			}
		}
	}
	for i, k := range keys {
		if math.IsInf(k, 1) != (h.pos[i] == -1) {
			t.Fatalf("server %d: key %v but pos %d", i, k, h.pos[i])
		}
		if got := h.Key(i); got != k {
			t.Fatalf("server %d: Key %v, want %v", i, got, k)
		}
	}
}

// TestTimeHeapMatchesScan fuzzes the indexed heap against the reference
// min-scan it replaced: after every update — inserts, moves up and down,
// removals to +Inf, repeated no-ops, and keys drawn from a few integers
// so that ties are common — the heap's minimum must equal the scan's
// minimum over the same keys, bit for bit, and its index must be the
// scan's lowest index holding that minimum (the farm's event group and
// the fault injector rely on the tie-break).
func TestTimeHeapMatchesScan(t *testing.T) {
	const n = 37
	rng := stats.NewRNG(5)
	h := NewTimeHeap(n)
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = math.Inf(1)
	}
	scanMin := func() (float64, int) {
		m, mi := math.Inf(1), -1
		for i, k := range keys {
			if k < m {
				m, mi = k, i
			}
		}
		return m, mi
	}
	for step := 0; step < 20_000; step++ {
		i := rng.Intn(n)
		var k float64
		switch rng.Intn(6) {
		case 0:
			k = math.Inf(1) // remove (or keep absent)
		case 1:
			k = keys[i] // no-op
		case 2:
			k = keys[i] - rng.Float64() // shrink, the per-event common case
			if math.IsInf(k, 1) {
				k = 10 * rng.Float64()
			}
		case 3:
			k = float64(rng.Intn(4)) // tie with other servers
		default:
			k = 20 * rng.Float64()
		}
		keys[i] = k
		h.Update(i, k)
		want, wi := scanMin()
		if got := h.Min(); got != want {
			t.Fatalf("step %d: heap min %v, scan min %v", step, got, want)
		}
		if got := h.MinIndex(); got != wi {
			t.Fatalf("step %d: heap min index %d (key %v), scan min index %d (key %v)",
				step, got, h.Key(max(got, 0)), wi, want)
		}
	}
	checkHeapLayout(t, h, keys)
}

// TestTimeHeapPopOrder drains a heap full of equal keys and checks the
// pop sequence against a reference sorted by (key, server index): the
// order depends on the keys alone, never on the heap's layout.
func TestTimeHeapPopOrder(t *testing.T) {
	const n = 300
	rng := stats.NewRNG(9)
	h := NewTimeHeap(n)
	keys := make([]float64, n)
	var want []int
	for i := range keys {
		keys[i] = math.Inf(1)
		if rng.Intn(8) > 0 {
			keys[i] = float64(rng.Intn(5))
			want = append(want, i)
		}
	}
	// Insert in a scrambled order, then move some keys up and back down
	// so that the layout is not the insertion order.
	for _, i := range rng.Perm(n) {
		h.Update(i, keys[i])
	}
	for _, i := range want[:len(want)/3] {
		h.Update(i, -1)
		h.Update(i, keys[i])
	}
	checkHeapLayout(t, h, keys)
	sort.SliceStable(want, func(a, b int) bool { return keys[want[a]] < keys[want[b]] })
	for step, wi := range want {
		if h.Len() != len(want)-step {
			t.Fatalf("pop %d: Len %d, want %d", step, h.Len(), len(want)-step)
		}
		i := h.MinIndex()
		if i != wi || h.Min() != keys[wi] {
			t.Fatalf("pop %d: got server %d (key %v), want server %d (key %v)", step, i, h.Min(), wi, keys[wi])
		}
		h.Update(i, math.Inf(1))
		keys[i] = math.Inf(1)
	}
	if h.Len() != 0 || h.MinIndex() != -1 || !math.IsInf(h.Min(), 1) {
		t.Fatalf("drained heap: Len %d, MinIndex %d, Min %v", h.Len(), h.MinIndex(), h.Min())
	}
}
