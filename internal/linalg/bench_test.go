package linalg

import (
	"math/rand"
	"testing"
)

func benchSystem(rows, cols int) (*Matrix, Vector) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, rows, cols)
	b := NewVector(rows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return a, b
}

func BenchmarkRidgeSolve(b *testing.B) {
	a, y := benchSystem(120, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RidgeSolve(a, y, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMulVec(b *testing.B) {
	a, _ := benchSystem(200, 100)
	x := NewVector(100)
	for i := range x {
		x[i] = float64(i % 3)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(x)
	}
}

func BenchmarkMulVecT(b *testing.B) {
	a, y := benchSystem(200, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVecT(y)
	}
}
