package linalg

import (
	"math/rand"
	"strings"
	"testing"
)

// matrixFromColumns builds a matrix from equal-length columns.
func matrixFromColumns(cols []Vector) *Matrix {
	if len(cols) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(cols[0]), len(cols))
	for j, c := range cols {
		checkLen(m.Rows, len(c))
		copy(m.Col(j), c)
	}
	return m
}

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for j := 0; j < c; j++ {
		for i := 0; i < r; i++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestMatrixAtSet(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if got := m.At(1, 2); got != 7 {
		t.Errorf("At = %v", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Errorf("zero At = %v", got)
	}
}

func TestMatrixColAliases(t *testing.T) {
	m := matrixFromColumns([]Vector{{1, 2}})
	col := m.Col(0)
	col[0] = 42
	if m.At(0, 0) != 42 {
		t.Error("Col should alias storage")
	}
}

func TestMulVec(t *testing.T) {
	m := matrixFromColumns([]Vector{{1, 0}, {0, 1}, {1, 1}})
	got := m.MulVec(Vector{2, 3, 4})
	if !got.ApproxEqual(Vector{6, 7}, 1e-12) {
		t.Errorf("MulVec = %v", got)
	}
}

func TestMulVecT(t *testing.T) {
	m := matrixFromColumns([]Vector{{1, 0}, {0, 1}, {1, 1}})
	got := m.MulVecT(Vector{5, 7})
	if !got.ApproxEqual(Vector{5, 7, 12}, 1e-12) {
		t.Errorf("MulVecT = %v", got)
	}
}

func TestMatrixString(t *testing.T) {
	m := matrixFromColumns([]Vector{{1, 3}, {2, 4}})
	s := m.String()
	if !strings.Contains(s, "1 2") || !strings.Contains(s, "3 4") {
		t.Errorf("String = %q", s)
	}
}

func TestCloneMatrixIndependence(t *testing.T) {
	m := matrixFromColumns([]Vector{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Error("Clone aliases storage")
	}
}
