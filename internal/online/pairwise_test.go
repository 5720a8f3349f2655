package online

import (
	"math"
	"testing"

	"symbiosched/internal/linalg"
	"symbiosched/internal/stats"
	"symbiosched/internal/workload"
)

// fullSolve is the reference the block solve replaces: type b's whole
// n x n ridge system, rebuilt from the normal equations and solved by
// linalg.Solve.
func fullSolve(p *Pairwise, b int) ([]float64, error) {
	a := p.gram[b].Clone()
	lambda := p.cfg.Ridge * (1 + p.obsT[b])
	for i := 0; i < p.n; i++ {
		a.Set(i, i, a.At(i, i)+lambda)
	}
	return linalg.Solve(a, p.rhs[b])
}

// refitFull brings every stale type of ref up to date through fullSolve,
// so ref answers queries from the full-system fit.
func refitFull(t *testing.T, ref *Pairwise) {
	t.Helper()
	for b := 0; b < ref.n; b++ {
		if !ref.dirty[b] || !ref.seen[b] {
			continue
		}
		x, err := fullSolve(ref, b)
		if err != nil {
			t.Fatalf("full solve of type %d: %v", b, err)
		}
		ref.beta[b], ref.dirty[b] = x, false
	}
}

// checkBlockStructure pins the premise of the block solve: outside type
// b's block every Gram row, Gram column and rhs entry is exactly zero.
func checkBlockStructure(t *testing.T, p *Pairwise, b int) {
	t.Helper()
	in := make([]bool, p.n)
	for _, u := range p.block[b] {
		in[u] = true
	}
	for i := 0; i < p.n; i++ {
		if in[i] {
			continue
		}
		if p.rhs[b][i] != 0 {
			t.Fatalf("type %d: rhs[%d] = %v outside block %v", b, i, p.rhs[b][i], p.block[b])
		}
		for j := 0; j < p.n; j++ {
			if p.gram[b].At(i, j) != 0 || p.gram[b].At(j, i) != 0 {
				t.Fatalf("type %d: Gram row/column %d non-zero outside block %v", b, i, p.block[b])
			}
		}
	}
}

// sameBits reports whether a and b are the same float64 bit patterns.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// compareWithFull checks p, which solves blocks, against ref, which was
// fed the same observations and refits through fullSolve: every beta,
// and JobWIPC and InstTP on the query coschedules, bit for bit.
func compareWithFull(t *testing.T, p, ref *Pairwise, queries []workload.Coschedule) {
	t.Helper()
	refitFull(t, ref)
	for _, c := range queries {
		if got, want := p.InstTP(c), ref.InstTP(c); !sameBits(got, want) {
			t.Fatalf("InstTP(%v) = %v, full solve gives %v", c, got, want)
		}
		for _, b := range c {
			if got, want := p.JobWIPC(c, b), ref.JobWIPC(c, b); !sameBits(got, want) {
				t.Fatalf("JobWIPC(%v, %d) = %v, full solve gives %v", c, b, got, want)
			}
		}
	}
	for b := 0; b < p.n; b++ {
		p.solve(b)
		if (p.beta[b] == nil) != (ref.beta[b] == nil) {
			t.Fatalf("type %d: block beta nil=%v, full beta nil=%v", b, p.beta[b] == nil, ref.beta[b] == nil)
		}
		for u := range p.beta[b] {
			if !sameBits(p.beta[b][u], ref.beta[b][u]) {
				t.Fatalf("beta[%d][%d] = %v (block %v), full solve gives %v",
					b, u, p.beta[b][u], p.block[b], ref.beta[b][u])
			}
		}
		if p.gram[b] != nil {
			checkBlockStructure(t, p, b)
		}
	}
}

// FuzzPairwiseBlockSolve pins the block solve bit-identical to the full
// n x n solve it replaced. A 12-type learner is fed random coschedules
// over a subset of the suite picked by mask — non-contiguous indices,
// repeated types, and one type observed only solo — and is checked
// against a twin that refits through fullSolve, at random points and at
// the end, on queries that also reach types never observed.
func FuzzPairwiseBlockSolve(f *testing.F) {
	f.Add(uint64(1), uint16(0b0000_1110_0010), uint8(3), uint8(60))   // mini suite 1,5,6,7
	f.Add(uint64(2), uint16(0b1111_1111_1111), uint8(1), uint8(200))  // whole suite
	f.Add(uint64(3), uint16(0b1001_0000_0001), uint8(0), uint8(20))   // K=1: all solo
	f.Add(uint64(4), uint16(0b0100_0100_0100), uint8(2), uint8(120))  // every fourth type
	f.Add(uint64(5), uint16(0b0000_0000_1000), uint8(3), uint8(30))   // one type with itself
	f.Add(uint64(6), uint16(0b1000_0000_0011), uint8(3), uint8(255))  // wrap-around indices
	f.Add(uint64(7), uint16(0), uint8(3), uint8(10))                  // nothing observed
	f.Add(uint64(8), uint16(0b0011_0000_1100), uint8(1), uint8(90))   // K=2 pairs
	f.Add(uint64(9), uint16(0b0101_0101_0101), uint8(7), uint8(160))  // ridge 0.5
	f.Add(uint64(10), uint16(0b1110_0000_0111), uint8(11), uint8(80)) // ridge 1e-6
	f.Fuzz(func(t *testing.T, seed uint64, mask uint16, kSel, steps uint8) {
		const n = 12
		k := 1 + int(kSel)%4
		ridge := []float64{0, 0.5, 1e-6}[int(kSel/4)%3] // 0: the default
		var mix []int
		for u := 0; u < n; u++ {
			if mask>>u&1 == 1 {
				mix = append(mix, u)
			}
		}
		r := stats.NewRNG(seed)
		// With two or more types in the mix, one runs only solo.
		solo, corun := -1, mix
		if len(mix) > 1 {
			i := r.Intn(len(mix))
			solo = mix[i]
			corun = append(append([]int(nil), mix[:i]...), mix[i+1:]...)
		}
		draw := func(pool []int) workload.Coschedule {
			c := make([]int, 1+r.Intn(k))
			for i := range c {
				c[i] = pool[r.Intn(len(pool))]
			}
			return workload.NewCoschedule(c...)
		}
		all := make([]int, n)
		for u := range all {
			all[u] = u
		}
		queries := func() []workload.Coschedule {
			qs := make([]workload.Coschedule, 4)
			for i := range qs {
				if i%2 == 0 && len(mix) > 0 {
					qs[i] = draw(mix)
				} else {
					qs[i] = draw(all)
				}
			}
			return qs
		}

		cfg := PairwiseConfig{Ridge: ridge}
		p, ref := NewPairwise(k, n, cfg), NewPairwise(k, n, cfg)
		for step := 0; step < int(steps) && len(mix) > 0; step++ {
			var c workload.Coschedule
			if solo >= 0 && r.Intn(5) == 0 {
				c = workload.NewCoschedule(solo)
			} else {
				c = draw(corun)
			}
			dt := 0.25
			if r.Intn(2) == 0 {
				dt = 1e-3 + 2*r.Float64()
			}
			progress := make([]float64, len(c))
			for i := range progress {
				progress[i] = (0.05 + 1.2*r.Float64()) * dt
			}
			p.ObserveInterval(c, dt, progress)
			ref.ObserveInterval(c, dt, progress)
			if r.Intn(4) == 0 {
				compareWithFull(t, p, ref, queries())
			}
		}
		compareWithFull(t, p, ref, queries())
	})
}
