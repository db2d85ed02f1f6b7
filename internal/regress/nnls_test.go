package regress

// Unit tests of the dense reference solvers in reference_test.go: the
// active-set NNLS, the Householder least squares it re-solves per step, and
// the column gather that feeds them.

import (
	"math"
	"math/rand"
	"testing"

	"comparesets/internal/linalg"
)

// randomMatrix returns an r×c matrix of standard normal entries.
func randomMatrix(rng *rand.Rand, r, c int) *linalg.Matrix {
	m := linalg.NewMatrix(r, c)
	for j := 0; j < c; j++ {
		for i := 0; i < r; i++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestNNLSRecoverNonNegativeSolution(t *testing.T) {
	// b lies exactly in the cone: x = (1, 0.5).
	a := matrixFromColumns([]linalg.Vector{{1, 0, 0}, {0, 2, 0}})
	b := linalg.Vector{1, 1, 0}
	x, err := nnls(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !x.ApproxEqual(linalg.Vector{1, 0.5}, 1e-8) {
		t.Errorf("x = %v", x)
	}
}

func TestNNLSClampsNegativeComponent(t *testing.T) {
	// Unconstrained LS would need a negative coefficient on column 2.
	a := matrixFromColumns([]linalg.Vector{{1, 0}, {1, 1}})
	b := linalg.Vector{2, -1}
	x, err := nnls(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range x {
		if v < 0 {
			t.Fatalf("x[%d] = %v < 0", j, v)
		}
	}
	// KKT: gradient must be <= 0 on active components, ~0 on passive ones.
	g := a.MulVecT(b.Sub(a.MulVec(x)))
	for j, v := range x {
		if v > 1e-8 && math.Abs(g[j]) > 1e-6 {
			t.Errorf("passive gradient g[%d] = %v", j, g[j])
		}
		if v <= 1e-8 && g[j] > 1e-6 {
			t.Errorf("active gradient g[%d] = %v > 0", j, g[j])
		}
	}
}

func TestNNLSZeroColumns(t *testing.T) {
	x, err := nnls(linalg.NewMatrix(3, 0), linalg.Vector{1, 2, 3})
	if err != nil || len(x) != 0 {
		t.Errorf("x = %v err = %v", x, err)
	}
}

func TestNNLSZeroTarget(t *testing.T) {
	a := matrixFromColumns([]linalg.Vector{{1, 0}, {0, 1}})
	x, err := nnls(a, linalg.Vector{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if x.Norm1() > 1e-10 {
		t.Errorf("x = %v, want zeros", x)
	}
}

// NNLS objective must never exceed the objective of the zero vector, and the
// solution must satisfy the KKT conditions on random instances.
func TestNNLSRandomKKT(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 100; trial++ {
		r := 4 + rng.Intn(12)
		c := 1 + rng.Intn(r) // keep supports solvable
		a := randomMatrix(rng, r, c)
		b := linalg.NewVector(r)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := nnls(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for j, v := range x {
			if v < 0 {
				t.Fatalf("trial %d: negative x[%d] = %v", trial, j, v)
			}
		}
		fit := linalg.SquaredDistance(a.MulVec(x), b)
		zero := b.Dot(b)
		if fit > zero+1e-8 {
			t.Fatalf("trial %d: fit %v worse than zero vector %v", trial, fit, zero)
		}
		g := a.MulVecT(b.Sub(a.MulVec(x)))
		for j := range x {
			if x[j] > 1e-7 && math.Abs(g[j]) > 1e-5 {
				t.Fatalf("trial %d: passive gradient %v", trial, g[j])
			}
			if x[j] <= 1e-7 && g[j] > 1e-5 {
				t.Fatalf("trial %d: active gradient %v > 0", trial, g[j])
			}
		}
	}
}

func TestNNLSDuplicateColumns(t *testing.T) {
	// Identical columns: any non-negative split with the right sum is
	// optimal; the fit must be exact.
	a := matrixFromColumns([]linalg.Vector{{1, 1}, {1, 1}})
	b := linalg.Vector{3, 3}
	x, err := nnls(a, b)
	if err != nil {
		t.Fatal(err)
	}
	fit := a.MulVec(x)
	if !fit.ApproxEqual(b, 1e-8) {
		t.Errorf("fit = %v", fit)
	}
}

func TestSelectColumns(t *testing.T) {
	m := matrixFromColumns([]linalg.Vector{{1, 1}, {2, 2}, {3, 3}})
	s := selectColumns(m, []int{2, 0, 2})
	want := matrixFromColumns([]linalg.Vector{{3, 3}, {1, 1}, {3, 3}})
	for j := 0; j < 3; j++ {
		if !s.Col(j).ApproxEqual(want.Col(j), 0) {
			t.Errorf("col %d = %v", j, s.Col(j))
		}
	}
}

func TestSelectColumnsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	selectColumns(linalg.NewMatrix(1, 1), []int{5})
}

func TestLeastSquaresExact(t *testing.T) {
	// Overdetermined but consistent: x = (1, 2).
	a := matrixFromColumns([]linalg.Vector{{1, 0, 1}, {0, 1, 1}})
	b := linalg.Vector{1, 2, 3}
	x, err := leastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !x.ApproxEqual(linalg.Vector{1, 2}, 1e-9) {
		t.Errorf("x = %v", x)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// The LS residual must be orthogonal to the column space.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		r := 5 + rng.Intn(10)
		c := 1 + rng.Intn(4)
		a := randomMatrix(rng, r, c)
		b := linalg.NewVector(r)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := leastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		resid := b.Sub(a.MulVec(x))
		g := a.MulVecT(resid)
		for j := range g {
			if math.Abs(g[j]) > 1e-8 {
				t.Fatalf("trial %d: gradient %v not ~0", trial, g)
			}
		}
	}
}

func TestLeastSquaresUnderdetermined(t *testing.T) {
	a := linalg.NewMatrix(1, 2)
	if _, err := leastSquares(a, linalg.Vector{1}); err == nil {
		t.Error("expected error for underdetermined system")
	}
}

func TestLeastSquaresEmpty(t *testing.T) {
	x, err := leastSquares(linalg.NewMatrix(3, 0), linalg.Vector{1, 2, 3})
	if err != nil || len(x) != 0 {
		t.Errorf("x = %v, err = %v", x, err)
	}
}

func TestLeastSquaresRankDeficient(t *testing.T) {
	// Two identical columns: solver must not blow up.
	a := matrixFromColumns([]linalg.Vector{{1, 1, 1}, {1, 1, 1}})
	b := linalg.Vector{2, 2, 2}
	x, err := leastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	fit := a.MulVec(x)
	if !fit.ApproxEqual(b, 1e-8) {
		t.Errorf("fit = %v, want %v", fit, b)
	}
}
