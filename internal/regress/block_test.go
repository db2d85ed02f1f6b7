package regress

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"comparesets/internal/linalg"
)

// plusBlocks builds CompaReSetS+-shaped blocks over dim opinion rows and z
// aspects: op×1 over asp×λ over asp×w, every review one of patterns
// repeated review patterns with a few 1s in each part.
func plusBlocks(rng *rand.Rand, dim, z, cols, patterns int, lambda, w float64) []Block {
	op, asp := reviewColumns(rng, dim, z, cols, patterns, false, false)
	return []Block{{op, 1}, {asp, lambda}, {asp, w}}
}

// reviewColumns draws cols review columns from patterns (op, asp)
// patterns. Opinion entries are 1, or non-zero signed unary scores when
// unary is set; aspect entries are 1, or positive fractions when frac is
// set (so a tiny scale can underflow their products to zero). A pattern
// may be empty in either part or both.
func reviewColumns(rng *rand.Rand, dim, z, cols, patterns int, unary, frac bool) (op, asp *linalg.SparseColumns) {
	type pattern struct{ op, asp linalg.Vector }
	pool := make([]pattern, patterns)
	for p := range pool {
		pool[p] = pattern{linalg.NewVector(dim), linalg.NewVector(z)}
		for k := rng.Intn(4); k > 0; k-- {
			v := 1.0
			if unary {
				if v = math.Round(rng.NormFloat64()*64) / 37; v == 0 {
					v = 1
				}
			}
			pool[p].op[rng.Intn(dim)] = v
		}
		for k := rng.Intn(4); k > 0; k-- {
			v := 1.0
			if frac {
				v = float64(1+rng.Intn(9)) / 10
			}
			pool[p].asp[rng.Intn(z)] = v
		}
	}
	opCols := make([]linalg.Vector, cols)
	aspCols := make([]linalg.Vector, cols)
	for j := range opCols {
		p := pool[rng.Intn(len(pool))]
		opCols[j], aspCols[j] = p.op, p.asp
	}
	return linalg.SparseFromColumns(dim, opCols), linalg.SparseFromColumns(z, aspCols)
}

// assemble is the dense design the blocks stand for, built the way the
// selection code built it before templates kept no copy: every entry of a
// block, zero or not, is its column's value times the block's scale.
func assemble(blocks []Block) *linalg.Matrix {
	rows := 0
	for _, b := range blocks {
		rows += b.Cols.Rows
	}
	a := linalg.NewMatrix(rows, blocks[0].Cols.Cols())
	for j := 0; j < a.Cols; j++ {
		col, off := a.Col(j), 0
		for _, b := range blocks {
			dense := linalg.NewVector(b.Cols.Rows)
			idx, val := b.Cols.Col(j)
			for t, i := range idx {
				dense[i] = val[t]
			}
			for i, v := range dense {
				col[off+i] = v * b.Scale
			}
			off += b.Cols.Rows
		}
	}
	return a
}

// sparseOf returns the non-zeros of a dense column, as the dense design path
// extracted them.
func sparseOf(col linalg.Vector) ([]int32, []float64) {
	var idx []int32
	var val []float64
	for i, v := range col {
		if v != 0 {
			idx = append(idx, int32(i))
			val = append(val, v)
		}
	}
	return idx, val
}

// checkBlockDesign checks that the problem built from blocks matches the
// dense design they stand for bit for bit: the grouping against pairwise
// bit comparison of the dense columns; every Gram float and every Aᵀy
// entry against GatherDotKernel over each unique column's non-zeros, the
// dense design path's arithmetic; the unique columns rebuilt from the
// blocks; and the NOMP
// path and the Solve selection and objective against the problem built
// from the dense matrix itself.
func checkBlockDesign(t *testing.T, blocks []Block, y linalg.Vector, m int) {
	t.Helper()
	p := NewBlockProblem(blocks...)
	a := assemble(blocks)
	want := naiveGrouping(a)
	if p.groups.len() != len(want) {
		t.Fatalf("%d groups, dense design has %d: %v", p.groups.len(), len(want), want)
	}
	for g, members := range want {
		got := p.groups.mem[p.groups.off[g]:p.groups.off[g+1]]
		if fmt.Sprint(got) != fmt.Sprint(members) {
			t.Fatalf("group %d: members %v, dense design %v", g, got, members)
		}
	}
	n := len(want)
	for j := 0; j < n; j++ {
		idx, val := sparseOf(a.Col(want[j][0]))
		for k := 0; k <= j; k++ {
			ref := linalg.GatherDotKernel(idx, val, a.Col(want[k][0]))
			if math.Float64bits(p.gramAt(j, k)) != math.Float64bits(ref) {
				t.Fatalf("G[%d][%d] = %v, dense reference %v", j, k, p.gramAt(j, k), ref)
			}
		}
		ref := linalg.GatherDotKernel(idx, val, y)
		if got := p.blocks.dot(p.groups.first(j), y); math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("(Aᵀy)[%d] = %v, dense reference %v", j, got, ref)
		}
	}
	unique, _, _ := dedup(a)
	if got := p.denseUnique(); !sameMatrix(got, unique) {
		t.Fatalf("unique columns rebuilt from the blocks differ from the dense design's")
	}
	dense := newProblem(a)
	if got, ref := gramPath(p, y, m), gramPath(dense, y, m); !samePath(got, ref) {
		t.Fatalf("NOMP path differs:\nblocks %v\ndense  %v", got, ref)
	}
	eval := func(sel []int) float64 {
		var s float64
		for _, j := range sel {
			s += float64((j*7)%5) * 0.25
		}
		return math.Abs(float64(len(sel))-2) + s
	}
	gotSel, gotObj := solve(p, y, m, eval)
	refSel, refObj := solve(dense, y, m, eval)
	if math.Float64bits(gotObj) != math.Float64bits(refObj) || fmt.Sprint(gotSel) != fmt.Sprint(refSel) {
		t.Fatalf("Solve = (%v, %v), dense (%v, %v)", gotSel, gotObj, refSel, refObj)
	}
}

// A problem built from scaled blocks over shared columns is the problem of
// the dense design they stand for, bit for bit, over CompaReSetS and
// CompaReSetS+ shapes: λ = 0 and μ = 0 blocks, the zero μ block of n = 1,
// −0 scales (which the cache keys equal to +0), scales so small that
// products underflow to zero, empty review columns, and the signed values
// of the unary scheme.
func TestBlockProblemMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	negZero := math.Copysign(0, -1)
	lambdas := []float64{1, 0.5, 0.3, 0, negZero, 5e-324}
	mus := []float64{0.1, 1, 0, negZero}
	for trial := 0; trial < 400; trial++ {
		dim, z := 1+rng.Intn(8), 1+rng.Intn(6)
		cols := rng.Intn(30)
		op, asp := reviewColumns(rng, dim, z, cols, 1+rng.Intn(cols+1), trial%3 == 0, trial%5 == 0)
		lambda := lambdas[rng.Intn(len(lambdas))]
		blocks := []Block{{op, 1}, {asp, lambda}}
		if trial%2 == 1 {
			n := 1 + rng.Intn(5)
			w := mus[rng.Intn(len(mus))] * math.Sqrt(float64(n-1))
			blocks = append(blocks, Block{asp, w})
		}
		rows := dim + z*(len(blocks)-1)
		y := linalg.NewVector(rows)
		for i := range y {
			y[i] = rng.Float64()
		}
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			checkBlockDesign(t, blocks, y, 1+rng.Intn(8))
		})
	}
}

// FuzzBlockDesign checks checkBlockDesign's parity on designs decoded from
// bytes: one or two aspect blocks under an opinion block, opinion values
// that are 1 or signed unary scores, aspect values that are 1 or positive
// fractions, scales from a table that includes 0, −0 and the smallest
// subnormal, and an arbitrary target.
func FuzzBlockDesign(f *testing.F) {
	f.Add([]byte{5, 3, 9, 1, 2, 4, 1, 0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36, 39, 42})
	f.Add([]byte{2, 2, 4, 0, 3, 0, 0, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 200, 17, 99})
	f.Add([]byte{7, 4, 12, 3, 5, 6, 7, 0, 129, 60, 3, 3, 6, 250, 9, 12, 15, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	// An odd count of non-zeros whose tail lands in the second accumulator
	// under a broken pairing rule changes the last bit of Aᵀy.
	f.Add([]byte("280C"))
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			pos++
			return data[pos-1]
		}
		dim, z, cols := 1+int(next()%6), 1+int(next()%5), int(next()%10)
		flags := next()
		scales := []float64{1, 0.5, 0.3, 1.0 / 3, 0.7 * math.Sqrt2, 0, math.Copysign(0, -1), 5e-324}
		lambda, w := scales[next()%8], scales[next()%8]
		opCols := make([]linalg.Vector, cols)
		aspCols := make([]linalg.Vector, cols)
		for j := range opCols {
			opCols[j], aspCols[j] = linalg.NewVector(dim), linalg.NewVector(z)
			for i := range opCols[j] {
				if b := next(); b%3 == 0 {
					opCols[j][i] = 1
					if flags&2 != 0 {
						opCols[j][i] = (float64(b) - 127) / 37
					}
				}
			}
			for i := range aspCols[j] {
				if b := next(); b%3 == 0 {
					aspCols[j][i] = 1
					if flags&4 != 0 {
						aspCols[j][i] = (float64(b) + 1) / 53
					}
				}
			}
		}
		blocks := []Block{
			{linalg.SparseFromColumns(dim, opCols), 1},
			{linalg.SparseFromColumns(z, aspCols), lambda},
		}
		if flags&1 != 0 {
			blocks = append(blocks, Block{blocks[1].Cols, w})
		}
		y := linalg.NewVector(dim + z*(len(blocks)-1))
		for i := range y {
			y[i] = (float64(next()) + 1) / 29
		}
		checkBlockDesign(t, blocks, y, 1+int(flags>>3)%8)
	})
}
