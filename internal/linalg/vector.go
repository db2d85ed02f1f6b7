// Package linalg provides the small linear-algebra kernel used by the
// Integer-Regression machinery: vectors, column-major matrices, sparse
// column runs, a Cholesky ridge solve, and the updatable Cholesky factor
// behind NOMP's one non-negative least-squares solver. That factor grows
// and shrinks with the NNLS passive set and refuses a column that would
// make it singular; the NOMP path then drops that atom.
//
// Everything is plain float64 on the standard library; the problem sizes in
// this repository (tens of rows, hundreds of columns, supports of at most a
// few dozen atoms) do not warrant BLAS.
package linalg

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Add returns v + w. It panics if lengths differ.
func (v Vector) Add(w Vector) Vector {
	checkLen(len(v), len(w))
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w. It panics if lengths differ.
func (v Vector) Sub(w Vector) Vector {
	checkLen(len(v), len(w))
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// AddInPlace sets v = v + w.
func (v Vector) AddInPlace(w Vector) {
	AddKernel(w, v)
}

// SubInPlace sets v = v - w.
func (v Vector) SubInPlace(w Vector) {
	checkLen(len(v), len(w))
	for i := range v {
		v[i] -= w[i]
	}
}

// Scale returns c * v.
func (v Vector) Scale(c float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = c * v[i]
	}
	return out
}

// ScaleInPlace sets v = c * v.
func (v Vector) ScaleInPlace(c float64) {
	for i := range v {
		v[i] *= c
	}
}

// AXPY sets v = v + c*w.
func (v Vector) AXPY(c float64, w Vector) {
	checkLen(len(v), len(w))
	AxpyKernel(c, w, v)
}

// Dot returns the inner product of v and w.
func (v Vector) Dot(w Vector) float64 {
	return DotKernel(v, w)
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 { return math.Sqrt(v.Dot(v)) }

// Norm1 returns the L1 norm of v.
func (v Vector) Norm1() float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// Sum returns the sum of the entries of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Max returns the maximum entry of v, or -Inf for an empty vector.
func (v Vector) Max() float64 {
	m := math.Inf(-1)
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// SquaredDistance returns sum_i (v_i - w_i)^2, the Δ distance of the paper
// (Eq. 2).
func SquaredDistance(v, w Vector) float64 {
	return SqDistKernel(v, w)
}

// Cosine returns the cosine similarity of v and w (Eq. 9). If either vector
// is zero, it returns 0.
func Cosine(v, w Vector) float64 {
	checkLen(len(v), len(w))
	nv, nw := v.Norm2(), w.Norm2()
	if nv == 0 || nw == 0 {
		return 0
	}
	return v.Dot(w) / (nv * nw)
}

// Concat returns the concatenation [vs[0]; vs[1]; ...].
func Concat(vs ...Vector) Vector {
	var n int
	for _, v := range vs {
		n += len(v)
	}
	out := make(Vector, 0, n)
	for _, v := range vs {
		out = append(out, v...)
	}
	return out
}

// Normalized returns v / ||v||_1, or a zero vector when ||v||_1 == 0.
func (v Vector) Normalized() Vector {
	n1 := v.Norm1()
	if n1 == 0 {
		return NewVector(len(v))
	}
	return v.Scale(1 / n1)
}

// ApproxEqual reports whether v and w agree elementwise within tol.
func (v Vector) ApproxEqual(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

func checkLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("linalg: dimension mismatch %d vs %d", a, b))
	}
}
