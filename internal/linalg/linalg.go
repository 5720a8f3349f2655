// Package linalg provides the small dense linear-algebra kernels the study
// needs: Gaussian elimination with partial pivoting and QR-based linear
// least squares. The matrices involved are tiny (at most a few hundred rows
// by a dozen columns), so clarity wins over blocking or SIMD tricks.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a system is (numerically) singular.
var ErrSingular = errors.New("linalg: singular matrix")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewMatrix allocates a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec returns m * x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("linalg: MulVec dimension mismatch")
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, a := range row {
			s += a * x[j]
		}
		y[i] = s
	}
	return y
}

// Solve solves the square system A x = b by Gaussian elimination with
// partial pivoting. A and b are not modified.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	if err := checkSquare(a, b); err != nil {
		return nil, err
	}
	m := a.Clone()
	x := append([]float64(nil), b...)
	if err := SolveInPlace(m, x); err != nil {
		return nil, err
	}
	return x, nil
}

// checkSquare returns an error unless m is square, its Data holds
// Rows*Cols elements and x has Rows elements.
func checkSquare(m *Matrix, x []float64) error {
	if m == nil {
		return errors.New("linalg: Solve of a nil matrix")
	}
	if m.Rows != m.Cols || m.Rows < 0 || len(m.Data) != m.Rows*m.Cols {
		return fmt.Errorf("linalg: Solve requires a square matrix, got %dx%d with %d elements", m.Rows, m.Cols, len(m.Data))
	}
	if len(x) != m.Rows {
		return fmt.Errorf("linalg: Solve rhs length %d != %d", len(x), m.Rows)
	}
	return nil
}

// SolveInPlace is Solve without allocation: on entry x holds the
// right-hand side b, on success it holds the solution of m x = b. The
// elimination overwrites m; on error m and x hold partial results.
// Malformed shapes return an error rather than panic.
func SolveInPlace(m *Matrix, x []float64) error {
	if err := checkSquare(m, x); err != nil {
		return err
	}
	n := m.Rows
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv, best := col, math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				piv, best = r, v
			}
		}
		if best < 1e-13 {
			return ErrSingular
		}
		if piv != col {
			for j := 0; j < n; j++ {
				m.Data[col*n+j], m.Data[piv*n+j] = m.Data[piv*n+j], m.Data[col*n+j]
			}
			x[col], x[piv] = x[piv], x[col]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.Data[r*n+j] -= f * m.Data[col*n+j]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return nil
}

// LeastSquares solves min_x ||A x - b||_2 for a full-column-rank A with
// Rows >= Cols using Householder QR. It returns the minimiser x and the
// residual norm ||A x - b||.
func LeastSquares(a *Matrix, b []float64) (x []float64, resid float64, err error) {
	if len(b) != a.Rows {
		return nil, 0, fmt.Errorf("linalg: LeastSquares rhs length %d != %d", len(b), a.Rows)
	}
	if a.Rows < a.Cols {
		return nil, 0, fmt.Errorf("linalg: LeastSquares underdetermined %dx%d", a.Rows, a.Cols)
	}
	m, n := a.Rows, a.Cols
	r := a.Clone()
	qtb := append([]float64(nil), b...)
	// Householder QR, applying reflectors to qtb on the fly.
	for k := 0; k < n; k++ {
		// Compute the norm of the k-th column below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			v := r.At(i, k)
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm < 1e-13 {
			return nil, 0, ErrSingular
		}
		if r.At(k, k) > 0 {
			norm = -norm
		}
		// v = column; v[k] -= norm; normalise implicitly via beta.
		vk := r.At(k, k) - norm
		r.Set(k, k, norm)
		// Store the reflector tail in place of the eliminated entries.
		tail := make([]float64, m-k)
		tail[0] = vk
		for i := k + 1; i < m; i++ {
			tail[i-k] = r.At(i, k)
			r.Set(i, k, 0)
		}
		// Reflector H = I - 2 v v^T / (v^T v); with this sign choice
		// v^T v = -2*norm*vk, so H = I - v v^T / beta with beta = -norm*vk.
		beta := -vk * norm
		if beta == 0 {
			continue
		}
		// Apply (I - v v^T * (1/beta)) to remaining columns and to qtb.
		for j := k + 1; j < n; j++ {
			var dot float64
			dot += tail[0] * r.At(k, j)
			for i := k + 1; i < m; i++ {
				dot += tail[i-k] * r.At(i, j)
			}
			f := dot / beta
			r.Set(k, j, r.At(k, j)-f*tail[0])
			for i := k + 1; i < m; i++ {
				r.Set(i, j, r.At(i, j)-f*tail[i-k])
			}
		}
		var dot float64
		dot += tail[0] * qtb[k]
		for i := k + 1; i < m; i++ {
			dot += tail[i-k] * qtb[i]
		}
		f := dot / beta
		qtb[k] -= f * tail[0]
		for i := k + 1; i < m; i++ {
			qtb[i] -= f * tail[i-k]
		}
	}
	// Back-substitute R x = (Q^T b)[:n].
	x = make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := qtb[i]
		for j := i + 1; j < n; j++ {
			s -= r.At(i, j) * x[j]
		}
		d := r.At(i, i)
		if math.Abs(d) < 1e-13 {
			return nil, 0, ErrSingular
		}
		x[i] = s / d
	}
	var rs float64
	for i := n; i < m; i++ {
		rs += qtb[i] * qtb[i]
	}
	return x, math.Sqrt(rs), nil
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot dimension mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
