package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func spdMatrix(rng *rand.Rand, n int) *Matrix {
	// A = BᵀB + I is symmetric positive definite.
	b := randomMatrix(rng, n+2, n)
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := b.Col(i).Dot(b.Col(j))
			if i == j {
				v++
			}
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(8)
		a := spdMatrix(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		// Check L·Lᵀ == A and the upper triangle of L is zero.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j > i && l.At(i, j) != 0 {
					t.Fatalf("upper triangle not zero at (%d,%d)", i, j)
				}
				var s float64
				for k := 0; k < n; k++ {
					s += l.At(i, k) * l.At(j, k)
				}
				if math.Abs(s-a.At(i, j)) > 1e-8 {
					t.Fatalf("LLᵀ(%d,%d) = %v, want %v", i, j, s, a.At(i, j))
				}
			}
		}
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	a := matrixFromColumns([]Vector{{0, 1}, {1, 0}}) // indefinite
	if _, err := Cholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Errorf("err = %v", err)
	}
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Error("non-square accepted")
	}
}

func TestSolveCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(8)
		a := spdMatrix(rng, n)
		want := NewVector(n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		got := SolveCholesky(l, b)
		if !got.ApproxEqual(want, 1e-7) {
			t.Fatalf("x = %v, want %v", got, want)
		}
	}
}

func TestRidgeSolveShrinks(t *testing.T) {
	// With tiny regularization the ridge solution approaches LS; with huge
	// regularization it approaches zero. b = 1·a₀ + 2·a₁ exactly, so the LS
	// solution is (1, 2).
	a := matrixFromColumns([]Vector{{1, 0, 1}, {0, 1, 1}})
	b := Vector{1, 2, 3}
	ls := Vector{1, 2}
	small, err := RidgeSolve(a, b, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if !small.ApproxEqual(ls, 1e-5) {
		t.Errorf("ridge(1e-10) = %v, LS = %v", small, ls)
	}
	big, err := RidgeSolve(a, b, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if big.Norm2() > 1e-6 {
		t.Errorf("ridge(1e9) = %v, want ~0", big)
	}
}

func TestRidgeSolveValidation(t *testing.T) {
	a := matrixFromColumns([]Vector{{1}})
	if _, err := RidgeSolve(a, Vector{1}, 0); err == nil {
		t.Error("zero regularizer accepted")
	}
	if _, err := RidgeSolve(a, Vector{1}, -1); err == nil {
		t.Error("negative regularizer accepted")
	}
}

func TestRidgeSolveRankDeficientStable(t *testing.T) {
	// Duplicate columns are fine under ridge — regularization restores
	// definiteness.
	a := matrixFromColumns([]Vector{{1, 1}, {1, 1}})
	x, err := RidgeSolve(a, Vector{2, 2}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetry: both coefficients equal.
	if math.Abs(x[0]-x[1]) > 1e-10 {
		t.Errorf("x = %v, want symmetric", x)
	}
}
