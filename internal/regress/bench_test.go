package regress

import (
	"context"
	"math/rand"
	"testing"

	"comparesets/internal/linalg"
)

// benchProblem mimics a CompaReSetS+ design matrix: sparse 0/1 columns over
// opinion+aspect rows for ~25 reviews.
func benchProblem(rows, cols int) (*linalg.Matrix, linalg.Vector) {
	rng := rand.New(rand.NewSource(2))
	colsv := make([]linalg.Vector, cols)
	for j := range colsv {
		v := linalg.NewVector(rows)
		for k := 0; k < 4; k++ {
			v[rng.Intn(rows)] = 1
		}
		colsv[j] = v
	}
	y := linalg.NewVector(rows)
	for i := range y {
		y[i] = rng.Float64()
	}
	return matrixFromColumns(colsv), y
}

// Sinks keep the compiler from dropping the measured calls.
var (
	sinkPath    []linalg.Vector
	sinkProblem *Problem
	sinkSel     []int
)

// BenchmarkProblemNOMPPath measures the NOMP path, amortizing the template
// preprocessing across targets the way the CompaReSetS+ sweeps do.
func BenchmarkProblemNOMPPath(b *testing.B) {
	a, y := benchProblem(150, 25)
	p := newProblem(a)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPath, _ = p.nompPath(ctx, y, 10)
	}
}

// BenchmarkDedup measures a template build: the grouping of identical
// columns (DeduplicateColumns of Algorithm 1) and the Gram matrix of the
// unique ones.
func BenchmarkDedup(b *testing.B) {
	a, _ := benchProblem(150, 25)
	block := Block{Cols: sparseMatrix(a), Scale: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkProblem = NewBlockProblem(block)
	}
}

// BenchmarkSolve measures a one-shot solve: a template build and one
// SolveContext.
func BenchmarkSolve(b *testing.B) {
	a, y := benchProblem(150, 25)
	block := Block{Cols: sparseMatrix(a), Scale: 1}
	eval := func(sel []int) float64 { return float64(len(sel)) }
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSel, _, _ = NewBlockProblem(block).SolveContext(ctx, y, 10, eval)
	}
}
