package linalg

import (
	"math"
	"sync/atomic"
)

// SparseColumns holds the non-zeros of a sequence of equal-length columns
// as three flat runs: column j's row indices, ascending, are
// Idx[Off[j]:Off[j+1]] and its values are Val at the same positions. The
// review designs of this repository are 0/1 indicators over a few dozen
// rows with a handful of non-zeros per column, so the runs take a fraction
// of the dense columns' bytes, and a consumer that walks the non-zeros
// touches only those.
type SparseColumns struct {
	Rows int       // length of every column
	Off  []int32   // Cols()+1 offsets into Idx and Val
	Idx  []int32   // row indices of the non-zeros, column after column
	Val  []float64 // matching values, never zero; read-only (see ShareOnes)
	// ones is set when Val aliases the shared run of ones.
	ones bool
}

// NewSparseColumns returns an empty set of rows-long columns with room for
// cols columns and nnz non-zeros.
func NewSparseColumns(rows, cols, nnz int) *SparseColumns {
	off := make([]int32, 1, cols+1)
	return &SparseColumns{Rows: rows, Off: off, Idx: make([]int32, 0, nnz), Val: make([]float64, 0, nnz)}
}

// SparseFromColumns extracts the non-zeros of dense columns of length rows.
func SparseFromColumns(rows int, cols []Vector) *SparseColumns {
	nnz := 0
	for _, c := range cols {
		checkLen(rows, len(c))
		for _, v := range c {
			if v != 0 {
				nnz++
			}
		}
	}
	s := NewSparseColumns(rows, len(cols), nnz)
	for _, c := range cols {
		s.appendDense(c)
	}
	s.ShareOnes()
	return s
}

// Cols returns the number of columns.
func (s *SparseColumns) Cols() int { return len(s.Off) - 1 }

// Col returns column j's row indices and values.
func (s *SparseColumns) Col(j int) ([]int32, []float64) {
	lo, hi := s.Off[j], s.Off[j+1]
	return s.Idx[lo:hi:hi], s.Val[lo:hi:hi]
}

// appendDense appends a column given densely, keeping its non-zeros (a −0
// entry is a zero and is dropped).
func (s *SparseColumns) appendDense(col Vector) {
	checkLen(s.Rows, len(col))
	s.own()
	for i, v := range col {
		if v != 0 {
			s.Idx = append(s.Idx, int32(i))
			s.Val = append(s.Val, v)
		}
	}
	s.Off = append(s.Off, int32(len(s.Idx)))
}

// AppendSparse appends a column given by its non-zeros, copying them.
func (s *SparseColumns) AppendSparse(idx []int32, val []float64) {
	checkLen(len(idx), len(val))
	s.own()
	s.Idx = append(s.Idx, idx...)
	s.Val = append(s.Val, val...)
	s.Off = append(s.Off, int32(len(s.Idx)))
}

// ShareOnes points Val at a shared, read-only run of ones when every value
// is exactly 1, as in every column of the counting opinion schemes and
// every aspect column, and drops the columns' own copy. Nothing reads Val
// differently afterwards; appending to s copies the run back first.
func (s *SparseColumns) ShareOnes() {
	if s.ones {
		return
	}
	for _, v := range s.Val {
		if math.Float64bits(v) != math.Float64bits(1) {
			return
		}
	}
	s.Val, s.ones = onesRun(len(s.Val)), true
}

// own gives s its own copy of a shared run of ones before an append.
func (s *SparseColumns) own() {
	if s.ones {
		s.Val, s.ones = append([]float64(nil), s.Val...), false
	}
}

// onesShared backs every ShareOnes run: a slice of ones, replaced by a
// longer one when a run needs more. Replaced slices stay valid for the
// runs that alias them, since no slice of ones is ever written.
var onesShared atomic.Pointer[[]float64]

// onesRun returns n ones from the shared run, capacity clamped to n.
func onesRun(n int) []float64 {
	for {
		p := onesShared.Load()
		if p != nil && len(*p) >= n {
			return (*p)[:n:n]
		}
		grown := make([]float64, max(n, 1024))
		if p != nil {
			grown = make([]float64, max(n, 2*len(*p)))
		}
		for i := range grown {
			grown[i] = 1
		}
		onesShared.CompareAndSwap(p, &grown)
	}
}

// Bytes returns the bytes the columns own: the offsets, the row indices
// and, unless they alias the shared run of ones, the values.
func (s *SparseColumns) Bytes() int {
	n := 4 * (cap(s.Off) + cap(s.Idx))
	if !s.ones {
		n += 8 * cap(s.Val)
	}
	return n
}
