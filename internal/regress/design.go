package regress

import (
	"math"

	"comparesets/internal/linalg"
)

// Block is one band of rows of a stacked design: every column of Cols,
// scaled by Scale. NewBlockProblem stacks its blocks top to bottom, so
// design column j is column j of every block, scaled, one band under the
// other. CompaReSetS's design W is op×1 over asp×λ; CompaReSetS+'s
// collapsed V adds asp×√(n−1)·μ below.
type Block struct {
	Cols  *linalg.SparseColumns
	Scale float64
}

// block is a Block placed at its first design row.
type block struct {
	cols  *linalg.SparseColumns
	scale float64
	off   int
}

// stack is a design held as scaled blocks over shared sparse columns; no
// entry of it is ever stored. Its non-zeros are the block entries whose
// product v·scale is not zero, in row order: a product that is zero (a
// zero scale, a −0 scale, an underflow) is skipped exactly as the sparse
// form of the assembled dense design would skip it. Every pass below walks
// those stacked non-zeros, so the design behaves bit for bit like the
// dense matrix it stands for.
type stack []block

// newStack places blocks one under the other and returns the stack, its
// row count and its column count. Every block must have the same number
// of columns.
func newStack(blocks []Block) (d stack, rows, cols int) {
	d = make(stack, len(blocks))
	for b, bl := range blocks {
		if b == 0 {
			cols = bl.Cols.Cols()
		} else if bl.Cols.Cols() != cols {
			panic("regress: design blocks differ in column count")
		}
		d[b] = block{cols: bl.Cols, scale: bl.Scale, off: rows}
		rows += bl.Cols.Rows
	}
	return d, rows, cols
}

// hash folds column j's stacked non-zeros, (row, bits) pairs, with
// FNV-1a; grouping verifies candidate groups with same, so collisions cost
// a compare, never correctness.
func (d stack) hash(j int) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range d {
		idx, val := b.cols.Col(j)
		for t, i := range idx {
			if v := val[t] * b.scale; v != 0 {
				h = (h ^ uint64(b.off+int(i))) * prime
				h = (h ^ math.Float64bits(v)) * prime
			}
		}
	}
	return h
}

// same reports whether columns a and b have the same stacked non-zeros:
// the same rows holding the same bits. That is bit equality of the dense
// columns, except that a −0 entry counts as the zero it is.
func (d stack) same(a, b int) bool {
	for _, bl := range d {
		ia, va := bl.cols.Col(a)
		ib, vb := bl.cols.Col(b)
		x, y := 0, 0
		for {
			for x < len(ia) && va[x]*bl.scale == 0 {
				x++
			}
			for y < len(ib) && vb[y]*bl.scale == 0 {
				y++
			}
			if x == len(ia) || y == len(ib) {
				if x != len(ia) || y != len(ib) {
					return false
				}
				break
			}
			if ia[x] != ib[y] || math.Float64bits(va[x]*bl.scale) != math.Float64bits(vb[y]*bl.scale) {
				return false
			}
			x++
			y++
		}
	}
	return true
}

// dot returns column j's dot product with the dense vector y (one entry
// per design row), summed exactly as linalg.GatherDotKernel sums the
// column's sparse form: the stacked non-zeros in row order, pairs split
// over two accumulators, and an odd tail into the first. A pair may
// straddle two blocks.
func (d stack) dot(j int, y []float64) float64 {
	var s0, s1, head float64
	odd := false // head holds a product waiting for its pair partner
	for _, b := range d {
		idx, val := b.cols.Col(j)
		ys := y[b.off : b.off+b.cols.Rows]
		for t, i := range idx {
			v := val[t] * b.scale
			if v == 0 {
				continue
			}
			if odd {
				s0 += head
				s1 += v * ys[i]
			} else {
				head = v * ys[i]
			}
			odd = !odd
		}
	}
	if odd {
		s0 += head
	}
	return s0 + s1
}

// scatter writes column j's stacked non-zeros into dense, whose other
// entries the caller keeps at zero.
func (d stack) scatter(j int, dense []float64) {
	for _, b := range d {
		idx, val := b.cols.Col(j)
		col := dense[b.off : b.off+b.cols.Rows]
		for t, i := range idx {
			if v := val[t] * b.scale; v != 0 {
				col[i] = v
			}
		}
	}
}
