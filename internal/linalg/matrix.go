package linalg

import (
	"fmt"
	"strings"
)

// Matrix is a dense column-major matrix. Column-major storage fits the
// Integer-Regression workload, where columns (one per review) are gathered,
// deduplicated, and multiplied against repeatedly.
type Matrix struct {
	Rows, Cols int
	// data holds the matrix column by column: element (i, j) lives at
	// data[j*Rows+i].
	data []float64
}

// NewMatrix returns a zero matrix with r rows and c columns.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[j*m.Rows+i] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[j*m.Rows+i] = v }

// Col returns column j as a slice aliasing the matrix storage. Mutating the
// returned slice mutates the matrix.
func (m *Matrix) Col(j int) Vector { return Vector(m.data[j*m.Rows : (j+1)*m.Rows]) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.data, m.data)
	return out
}

// MulVec returns m * x.
func (m *Matrix) MulVec(x Vector) Vector {
	checkLen(m.Cols, len(x))
	out := NewVector(m.Rows)
	for j := 0; j < m.Cols; j++ {
		AxpyKernel(x[j], m.data[j*m.Rows:(j+1)*m.Rows], out)
	}
	return out
}

// MulVecT returns mᵀ * y.
func (m *Matrix) MulVecT(y Vector) Vector {
	checkLen(m.Rows, len(y))
	out := NewVector(m.Cols)
	for j := 0; j < m.Cols; j++ {
		out[j] = DotKernel(m.data[j*m.Rows:(j+1)*m.Rows], y)
	}
	return out
}

// String renders the matrix row by row, mostly for debugging and tests.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
