package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the matrix is not
// symmetric positive definite (within numerical tolerance).
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L with A = L·Lᵀ for a
// symmetric positive-definite matrix A. Only the lower triangle of A is
// read. The returned matrix has the factor in its lower triangle and zeros
// above the diagonal.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			v := l.At(j, k)
			d -= v * v
		}
		if d <= 0 {
			return nil, ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/d)
		}
	}
	return l, nil
}

// SolveCholesky solves A x = b given the Cholesky factor L of A, by forward
// then backward substitution.
func SolveCholesky(l *Matrix, b Vector) Vector {
	n := l.Rows
	checkLen(n, len(b))
	// Forward: L y = b.
	y := NewVector(n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Backward: Lᵀ x = y.
	x := NewVector(n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// UpdatableCholesky maintains the lower-triangular Cholesky factor of a
// symmetric positive-definite matrix that grows and shrinks one row/column
// at a time. It is the inner engine of the incremental NNLS used by NOMP:
// the factored matrix is the Gram matrix of the current passive set, a new
// atom extends the factor in O(k²), and an evicted atom is dropped with a
// sequence of rank-1 rotations instead of a refactorization.
type UpdatableCholesky struct {
	n int
	// l stores the factor row-major in a flat triangle-friendly layout:
	// row i lives at l[i*cap : i*cap+i+1].
	l   []float64
	cap int
}

// NewUpdatableCholesky returns an empty factorization with capacity for
// matrices up to capHint×capHint (the factor grows beyond the hint if
// needed).
func NewUpdatableCholesky(capHint int) *UpdatableCholesky {
	if capHint < 4 {
		capHint = 4
	}
	return &UpdatableCholesky{cap: capHint, l: make([]float64, capHint*capHint)}
}

// Size returns the current dimension of the factored matrix.
func (u *UpdatableCholesky) Size() int { return u.n }

// Reset empties the factorization without releasing storage.
func (u *UpdatableCholesky) Reset() { u.n = 0 }

func (u *UpdatableCholesky) at(i, j int) float64     { return u.l[i*u.cap+j] }
func (u *UpdatableCholesky) set(i, j int, v float64) { u.l[i*u.cap+j] = v }

func (u *UpdatableCholesky) grow() {
	newCap := 2 * u.cap
	nl := make([]float64, newCap*newCap)
	for i := 0; i < u.n; i++ {
		copy(nl[i*newCap:i*newCap+i+1], u.l[i*u.cap:i*u.cap+i+1])
	}
	u.l, u.cap = nl, newCap
}

// Extend grows the factored matrix by one row/column. row holds the new
// Gram entries against the existing columns (length Size()) and diag the
// new diagonal entry. It returns ErrNotPositiveDefinite — leaving the
// factorization unchanged — when the extended matrix is numerically
// singular, so the caller can drop the new column and go on with the
// factor it had.
func (u *UpdatableCholesky) Extend(row Vector, diag float64) error {
	checkLen(u.n, len(row))
	if u.n == u.cap {
		u.grow()
	}
	n := u.n
	// Solve L w = row by forward substitution; the new row of the factor is
	// [wᵀ, sqrt(diag − wᵀw)].
	base := n * u.cap
	d := diag
	for i := 0; i < n; i++ {
		// Row i of the factor and the new row prefix are both unit-stride:
		// the forward-substitution sum is one dot kernel.
		s := row[i] - DotKernel(u.l[i*u.cap:i*u.cap+i], u.l[base:base+i])
		w := s / u.at(i, i)
		u.l[base+i] = w
		d -= w * w
	}
	if d <= 1e-12*math.Max(diag, 1) {
		return ErrNotPositiveDefinite
	}
	u.l[base+n] = math.Sqrt(d)
	u.n++
	return nil
}

// Remove deletes row/column k from the factored matrix. The trailing block
// is repaired with a rank-1 Cholesky update (Givens-style rotations), so the
// cost is O((n−k)²) rather than a full refactorization.
func (u *UpdatableCholesky) Remove(k int) {
	if k < 0 || k >= u.n {
		panic(fmt.Sprintf("linalg: Remove(%d) out of range [0,%d)", k, u.n))
	}
	n := u.n
	// The deleted column's sub-diagonal entries become the rank-1 update of
	// the trailing factor: L'₂₂ L'₂₂ᵀ = L₂₂ L₂₂ᵀ + v vᵀ.
	v := make([]float64, n-k-1)
	for i := k + 1; i < n; i++ {
		v[i-k-1] = u.at(i, k)
	}
	// Shift rows up and the trailing columns left.
	for i := k + 1; i < n; i++ {
		dst := (i - 1) * u.cap
		src := i * u.cap
		copy(u.l[dst:dst+k], u.l[src:src+k])
		copy(u.l[dst+k:dst+i], u.l[src+k+1:src+i+1])
	}
	u.n--
	// Rank-1 update of the trailing (n−k−1)×(n−k−1) block at offset k.
	m := len(v)
	for j := 0; j < m; j++ {
		jj := k + j
		ljj := u.at(jj, jj)
		r := math.Hypot(ljj, v[j])
		c, s := r/ljj, v[j]/ljj
		u.set(jj, jj, r)
		for i := j + 1; i < m; i++ {
			ii := k + i
			nij := (u.at(ii, jj) + s*v[i]) / c
			v[i] = c*v[i] - s*nij
			u.set(ii, jj, nij)
		}
	}
}

// Solve solves A x = b for the currently factored matrix A = L·Lᵀ, writing
// the solution into out (which must have length Size()). b and out may
// alias.
func (u *UpdatableCholesky) Solve(b Vector, out Vector) {
	n := u.n
	checkLen(n, len(b))
	checkLen(n, len(out))
	// Forward: L y = b. Row i's prefix and the solved prefix of out are
	// both unit-stride, so the substitution sum is one dot kernel.
	for i := 0; i < n; i++ {
		row := u.l[i*u.cap : i*u.cap+i+1]
		out[i] = (b[i] - DotKernel(row[:i], out[:i])) / row[i]
	}
	// Backward: Lᵀ x = y.
	for i := n - 1; i >= 0; i-- {
		s := out[i]
		for k := i + 1; k < n; k++ {
			s -= u.at(k, i) * out[k]
		}
		out[i] = s / u.at(i, i)
	}
}

// RidgeSolve solves the ridge-regularized least squares problem
// min_x ||A x − b||² + reg·||x||² via the normal equations
// (AᵀA + reg·I) x = Aᵀ b with a Cholesky factorization. reg must be
// positive, which also guarantees positive definiteness.
func RidgeSolve(a *Matrix, b Vector, reg float64) (Vector, error) {
	if reg <= 0 {
		return nil, fmt.Errorf("linalg: ridge regularizer must be positive, got %v", reg)
	}
	checkLen(a.Rows, len(b))
	n := a.Cols
	gram := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		ci := a.Col(i)
		for j := 0; j <= i; j++ {
			v := ci.Dot(a.Col(j))
			if i == j {
				v += reg
			}
			gram.Set(i, j, v)
			gram.Set(j, i, v)
		}
	}
	l, err := Cholesky(gram)
	if err != nil {
		return nil, err
	}
	return SolveCholesky(l, a.MulVecT(b)), nil
}
