package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"symbiosched/internal/stats"
)

func TestSolveIdentity(t *testing.T) {
	a := NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		a.Set(i, i, 1)
	}
	b := []float64{1, 2, 3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for i := range b {
		if math.Abs(x[i]-b[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], b[i])
		}
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x - y = 1 -> x = 2, y = 1.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, -1)
	x, err := Solve(a, []float64{5, 1})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Errorf("x = %v, want [2 1]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := Solve(a, []float64{1, 2}); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := Solve(a, []float64{3, 7})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [7 3]", x)
	}
}

// Property: Solve(A, A*x) recovers x for random well-conditioned A.
func TestSolveRoundTripProperty(t *testing.T) {
	rng := stats.NewRNG(42)
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed ^ rng.Uint64())
		n := 2 + r.Intn(8)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.Float64()-0.5)
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonal dominance
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = r.Float64()*10 - 5
		}
		got, err := Solve(a, a.MulVec(want))
		if err != nil {
			return false
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// randomSystem draws an n x n system. Half the draws are diagonally
// dominant; the rest have small or zero diagonals, so partial pivoting
// swaps rows.
func randomSystem(r *stats.RNG, n int) (*Matrix, []float64) {
	a := NewMatrix(n, n)
	dominant := r.Intn(2) == 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, r.Float64()*2-1)
		}
		switch {
		case dominant:
			a.Set(i, i, a.At(i, i)+float64(n))
		case r.Intn(3) == 0:
			a.Set(i, i, 0)
		default:
			a.Set(i, i, a.At(i, i)*1e-3)
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = r.Float64()*10 - 5
	}
	return a, b
}

// TestSolveInPlaceMatchesSolve: the in-place kernel, run on a reused
// scratch matrix, returns Solve's solution bit for bit, and both report
// a singular system the same way.
func TestSolveInPlaceMatchesSolve(t *testing.T) {
	r := stats.NewRNG(7)
	scratch := &Matrix{}
	var x []float64
	singular := 0
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(12)
		a, b := randomSystem(r, n)
		if trial%50 == 0 && n > 1 {
			copy(a.Data[n:2*n], a.Data[:n]) // rank-deficient: two equal rows
		}
		want, wantErr := Solve(a, b)
		scratch.Rows, scratch.Cols = n, n
		scratch.Data = append(scratch.Data[:0], a.Data...)
		x = append(x[:0], b...)
		if err := SolveInPlace(scratch, x); err != wantErr {
			t.Fatalf("trial %d: SolveInPlace err %v, Solve err %v", trial, err, wantErr)
		}
		if wantErr != nil {
			singular++
			continue
		}
		for i := range want {
			if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (n=%d): x[%d] = %v, Solve gives %v", trial, n, i, x[i], want[i])
			}
		}
	}
	if singular == 0 {
		t.Error("no singular system drawn; the error path went unchecked")
	}
}

// TestSolveLeavesInputsUnmodified pins Solve's documented contract: A and
// b come back bit-identical, pivoting cases included.
func TestSolveLeavesInputsUnmodified(t *testing.T) {
	r := stats.NewRNG(11)
	for trial := 0; trial < 200; trial++ {
		a, b := randomSystem(r, 1+r.Intn(12))
		a0, b0 := a.Clone(), append([]float64(nil), b...)
		if _, err := Solve(a, b); err != nil {
			continue
		}
		for i := range a.Data {
			if math.Float64bits(a.Data[i]) != math.Float64bits(a0.Data[i]) {
				t.Fatalf("trial %d: Solve modified A[%d]", trial, i)
			}
		}
		for i := range b {
			if math.Float64bits(b[i]) != math.Float64bits(b0[i]) {
				t.Fatalf("trial %d: Solve modified b[%d]", trial, i)
			}
		}
	}
}

// TestSolveShapeErrors: malformed systems are errors, never panics.
func TestSolveShapeErrors(t *testing.T) {
	cases := []struct {
		name string
		m    *Matrix
		x    []float64
	}{
		{"nil matrix", nil, nil},
		{"non-square", NewMatrix(2, 3), make([]float64, 2)},
		{"rhs too short", NewMatrix(3, 3), make([]float64, 2)},
		{"rhs too long", NewMatrix(2, 2), make([]float64, 3)},
		{"short data", &Matrix{Rows: 3, Cols: 3, Data: make([]float64, 8)}, make([]float64, 3)},
		{"negative shape", &Matrix{Rows: -1, Cols: -1}, nil},
	}
	for _, c := range cases {
		if err := SolveInPlace(c.m, c.x); err == nil {
			t.Errorf("SolveInPlace(%s) succeeded", c.name)
		}
		if _, err := Solve(c.m, c.x); err == nil {
			t.Errorf("Solve(%s) succeeded", c.name)
		}
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Square consistent system: residual must be ~0 and match Solve.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 3)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 2)
	want := []float64{1.5, -2}
	x, resid, err := LeastSquares(a, a.MulVec(want))
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	if resid > 1e-10 {
		t.Errorf("resid = %v, want ~0", resid)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = c0 + c1*t through 4 points of an exact line plus symmetric
	// noise: the LS fit must recover the line exactly.
	ts := []float64{0, 1, 2, 3}
	noise := []float64{0.1, -0.1, -0.1, 0.1}
	a := NewMatrix(4, 2)
	b := make([]float64, 4)
	for i, tt := range ts {
		a.Set(i, 0, 1)
		a.Set(i, 1, tt)
		b[i] = 2 + 3*tt + noise[i]
	}
	x, resid, err := LeastSquares(a, b)
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	if math.Abs(x[0]-2) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Errorf("fit = %v, want [2 3]", x)
	}
	wantResid := Norm2(noise)
	if math.Abs(resid-wantResid) > 1e-9 {
		t.Errorf("resid = %v, want %v", resid, wantResid)
	}
}

// Property: the least-squares residual is orthogonal to the column space:
// A^T (A x - b) = 0.
func TestLeastSquaresNormalEquationsProperty(t *testing.T) {
	rng := stats.NewRNG(1234)
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed ^ rng.Uint64())
		m := 5 + r.Intn(20)
		n := 2 + r.Intn(3)
		a := NewMatrix(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.Float64()*2-1)
			}
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = r.Float64()*2 - 1
		}
		x, _, err := LeastSquares(a, b)
		if err != nil {
			return true // rank-deficient random draw: skip
		}
		ax := a.MulVec(x)
		for j := 0; j < n; j++ {
			var dot float64
			for i := 0; i < m; i++ {
				dot += a.At(i, j) * (ax[i] - b[i])
			}
			if math.Abs(dot) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLeastSquaresShapeErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, _, err := LeastSquares(a, []float64{1, 2}); err == nil {
		t.Error("expected error for underdetermined system")
	}
	b := NewMatrix(3, 2)
	if _, _, err := LeastSquares(b, []float64{1, 2}); err == nil {
		t.Error("expected error for rhs length mismatch")
	}
}

func TestDotAndNorm(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
}
