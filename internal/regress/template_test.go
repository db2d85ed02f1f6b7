package regress

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"comparesets/internal/linalg"
)

// designWithDuplicates builds a sparse design whose columns repeat: every
// column is drawn from a small pool of 0/1 patterns, either verbatim or
// scaled by λ, the way CompaReSetS+ designs mix exact duplicates with
// λ-weighted copies of the same mentions.
func designWithDuplicates(rng *rand.Rand, rows, cols int) *linalg.Matrix {
	lambdas := []float64{1, 0.5, 0.3, math.Sqrt(2) * 0.2}
	pool := make([]linalg.Vector, 2+rng.Intn(cols))
	for p := range pool {
		v := linalg.NewVector(rows)
		for k := 0; k < 1+rng.Intn(4); k++ {
			v[rng.Intn(rows)] = 1
		}
		pool[p] = v
	}
	colsv := make([]linalg.Vector, cols)
	for j := range colsv {
		colsv[j] = pool[rng.Intn(len(pool))].Scale(lambdas[rng.Intn(len(lambdas))])
	}
	return linalg.MatrixFromColumns(colsv)
}

// sameMatrix reports whether a and b have one shape and equal entries
// under ==.
func sameMatrix(a, b *linalg.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		for i, v := range a.Col(j) {
			if b.Col(j)[i] != v {
				return false
			}
		}
	}
	return true
}

// samePath reports bit-for-bit equality of two NOMP paths.
func samePath(a, b []linalg.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for s := range a {
		if len(a[s]) != len(b[s]) {
			return false
		}
		for j, v := range a[s] {
			if math.Float64bits(v) != math.Float64bits(b[s][j]) {
				return false
			}
		}
	}
	return true
}

// plusDesign builds a CompaReSetS+-shaped design over dim opinion rows and
// z aspects: every column is one of patterns review patterns, repeated,
// with 1 on its opinion rows, λ on its aspects' rows of the λ block, and w
// on the same aspects' rows of the μ block, so every entry is one of
// {0, 1, λ, w}.
func plusDesign(rng *rand.Rand, dim, z, cols, patterns int, lambda, w float64) *linalg.Matrix {
	pool := make([]linalg.Vector, patterns)
	for p := range pool {
		v := linalg.NewVector(dim + 2*z)
		for k := rng.Intn(3); k > 0; k-- {
			v[rng.Intn(dim)] = 1
		}
		for k := rng.Intn(4); k > 0; k-- {
			a := rng.Intn(z)
			v[dim+a], v[dim+z+a] = lambda, w
		}
		pool[p] = v
	}
	colsv := make([]linalg.Vector, cols)
	for j := range colsv {
		colsv[j] = pool[rng.Intn(len(pool))]
	}
	return linalg.MatrixFromColumns(colsv)
}

// naiveGrouping groups the identical columns of a by pairwise bit
// comparison: groups in order of first occurrence, members ascending.
func naiveGrouping(a *linalg.Matrix) [][]int {
	var groups [][]int
	for j := 0; j < a.Cols; j++ {
		g := 0
		for g < len(groups) && !sameColumn(a.Col(groups[g][0]), a.Col(j)) {
			g++
		}
		if g == len(groups) {
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], j)
	}
	return groups
}

// denseGram is the Gram matrix of unique's columns as a dense n×n matrix,
// entry (j, k) for k ≤ j computed as GatherDotKernel(sparse column j,
// dense column k) and mirrored to (k, j).
func denseGram(unique *linalg.Matrix) *linalg.Matrix {
	n := unique.Cols
	g := linalg.NewMatrix(n, n)
	for j := 0; j < n; j++ {
		var idx []int32
		var val []float64
		for i, v := range unique.Col(j) {
			if v != 0 {
				idx = append(idx, int32(i))
				val = append(val, v)
			}
		}
		for k := 0; k <= j; k++ {
			s := linalg.GatherDotKernel(idx, val, unique.Col(k))
			g.Set(j, k, s)
			g.Set(k, j, s)
		}
	}
	return g
}

// tieFreeSteps returns how many leading iterates of the dense reference
// path ref were reached without a tie: at each step, the two largest
// positive residual correlations outside the support must differ by more
// than 1e-9 relative. At a tie the Gram-space and dense solvers may
// legitimately pick different atoms, since their correlations differ by
// rounding, so paths are compared only up to the first one.
func tieFreeSteps(u *linalg.Matrix, y linalg.Vector, ref []linalg.Vector) int {
	x := linalg.NewVector(u.Cols)
	for s := range ref {
		corr := u.MulVecT(y.Sub(u.MulVec(x)))
		top1, top2 := math.Inf(-1), math.Inf(-1)
		for j, c := range corr {
			switch {
			case x[j] != 0:
			case c > top1:
				top1, top2 = c, top1
			case c > top2:
				top2 = c
			}
		}
		if top2 > 1e-10 && top1-top2 <= 1e-9*math.Max(1, math.Abs(top1)) {
			return s
		}
		x = ref[s]
	}
	return len(ref)
}

// A template keeps the grouping as offsets over one member array, the
// sparse forms of the unique columns as offsets over flat slabs, and the
// Gram matrix as its packed lower triangle. Each must reproduce, bit for
// bit, what the dense layout held: Dedup's unique matrix, counts and
// members; the dense Gram in both argument orders; and the correlation
// update as an axpy over a dense Gram column. The Gram-space NOMP path
// must still agree with the dense reference on the rebuilt matrix, up to
// the first correlation tie.
func TestProblemDenseUniqueRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	check := func(trial int, a *linalg.Matrix) {
		t.Helper()
		unique, counts, members := Dedup(a)
		if want := naiveGrouping(a); fmt.Sprint(members) != fmt.Sprint(want) {
			t.Fatalf("trial %d: Dedup groups %v, want %v", trial, members, want)
		}
		p := NewProblem(a)
		if got := p.denseUnique(); !sameMatrix(got, unique) {
			t.Fatalf("trial %d: rebuilt %dx%d matrix differs from Dedup's %dx%d unique matrix",
				trial, got.Rows, got.Cols, unique.Rows, unique.Cols)
		}
		if p.groups.len() != len(counts) || len(p.groups.mem) != a.Cols {
			t.Fatalf("trial %d: %d groups over %d members, Dedup has %d over %d",
				trial, p.groups.len(), len(p.groups.mem), len(counts), a.Cols)
		}
		for g := range counts {
			got := p.groups.mem[p.groups.off[g]:p.groups.off[g+1]]
			if p.groups.count(g) != counts[g] || len(got) != len(members[g]) {
				t.Fatalf("trial %d group %d: count %d members %v, Dedup has %d %v",
					trial, g, p.groups.count(g), got, counts[g], members[g])
			}
			for k, j := range members[g] {
				if int(got[k]) != j {
					t.Fatalf("trial %d group %d: members %v, Dedup has %v", trial, g, got, members[g])
				}
			}
		}
		dense := denseGram(unique)
		n := unique.Cols
		if len(p.gram) != n*(n+1)/2 {
			t.Fatalf("trial %d: %d packed Gram entries for %d columns", trial, len(p.gram), n)
		}
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				want := math.Float64bits(dense.At(j, k))
				if math.Float64bits(p.gramAt(j, k)) != want || math.Float64bits(p.gramAt(k, j)) != want {
					t.Fatalf("trial %d: G[%d][%d] = %v / %v, dense %v", trial, j, k, p.gramAt(j, k), p.gramAt(k, j), dense.At(j, k))
				}
			}
		}
		// Some entries start at −0 and some steps have α = 0, which the
		// dense axpy skips: adding 0·G[j][k] would turn −0 into +0.
		want, got := linalg.NewVector(n), linalg.NewVector(n)
		for i := range want {
			if want[i] = rng.NormFloat64(); rng.Intn(4) == 0 {
				want[i] = math.Copysign(0, -1)
			}
			got[i] = want[i]
		}
		for _, k := range rng.Perm(n)[:rng.Intn(n+1)] {
			alpha := -rng.Float64() * 3
			if rng.Intn(4) == 0 {
				alpha = 0
			}
			linalg.AxpyKernel(alpha, dense.Col(k), want)
			p.axpyGramCol(alpha, k, got)
		}
		if !samePath([]linalg.Vector{got}, []linalg.Vector{want}) {
			t.Fatalf("trial %d: packed correlation update %v, dense %v", trial, got, want)
		}
		y := linalg.NewVector(unique.Rows)
		for i := range y {
			y[i] = rng.Float64()
		}
		m := 1 + rng.Intn(8)
		ref, err := nompPathDense(context.Background(), p.denseUnique(), y, m)
		if err != nil {
			t.Fatal(err)
		}
		path := p.NOMPPath(y, m)
		if len(path) != len(ref) {
			t.Fatalf("trial %d: path of %d iterates, dense reference %d", trial, len(path), len(ref))
		}
		for s := range ref[:tieFreeSteps(unique, y, ref)] {
			if !ref[s].ApproxEqual(path[s], 1e-7) {
				t.Fatalf("trial %d step %d:\ndense %v\ngram  %v", trial, s, ref[s], path[s])
			}
		}
	}
	trial := 0
	for ; trial < 200; trial++ {
		check(trial, designWithDuplicates(rng, 1+rng.Intn(40), 1+rng.Intn(30)))
	}
	for _, lambda := range []float64{0, 0.5, 1} {
		for _, n := range []int{2, 3, 5, 10} {
			w := math.Sqrt(float64(n - 1))
			for rep := 0; rep < 20; rep++ {
				cols := 1 + rng.Intn(40)
				check(trial, plusDesign(rng, 2+rng.Intn(6), 1+rng.Intn(8), cols, 1+rng.Intn(cols), lambda, w))
				trial++
			}
		}
	}
}

// A template allocates its compact layout and nothing more: the Problem
// value, one int32 slab for the grouping, one for the sparse offsets and
// row indices, one float64 slab for the non-zeros, and the packed Gram.
// TotalAlloc counts every byte handed out whenever the GC runs, so the
// delta around NewProblem measures the template; a warm call first fills
// the pooled dedup scratch, and the smallest of a few deltas discards a
// pool emptied by a collection in between.
func TestNewProblemAllocatesCompactLayout(t *testing.T) {
	const reviews, dim, z = 40, 16, 24
	a := plusDesign(rand.New(rand.NewSource(66)), dim, z, reviews, 20, 0.5, 2)
	p := NewProblem(a)
	n, nnz := p.cols, len(p.sparse.idx)
	if n < 15 {
		t.Fatalf("design has %d unique columns, want about 20", n)
	}
	layout := uint64(unsafe.Sizeof(Problem{})) +
		4*uint64(n+1+reviews) + // grouping offsets and members
		4*uint64(n+1+nnz) + 8*uint64(nnz) + // sparse offsets, rows, values
		8*uint64(n*(n+1)/2) // packed Gram
	// Size classes round each of the five allocations up by at most 1/8,
	// and by at most 16 bytes below 128 bytes.
	limit := layout + layout/8 + 5*16
	var before, after runtime.MemStats
	got := uint64(math.MaxUint64)
	for try := 0; try < 5; try++ {
		NewProblem(a)
		runtime.ReadMemStats(&before)
		NewProblem(a)
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d unique columns, %d non-zeros: NewProblem allocates %d bytes, layout %d, limit %d", n, nnz, got, layout, limit)
	if got > limit {
		t.Fatalf("NewProblem allocates %d bytes, more than the %d-byte compact layout plus size-class slack (%d)", got, layout, limit)
	}
}

// fallbackDesign embeds a pair of nearly parallel columns a and
// b = a + ε·v in a design whose other columns live on disjoint rows. After
// NOMP fits a, b keeps a small positive correlation with the residual, so
// it enters the passive set and its Gram block with a is numerically
// singular: the incremental Cholesky refuses the extension and the solver
// must take the dense fallback.
func fallbackDesign(rng *rand.Rand) (*linalg.Matrix, linalg.Vector) {
	const eps = 1e-7
	extraRows := rng.Intn(12)
	rows := 3 + extraRows
	scale := []float64{1, 0.5, 2}[rng.Intn(3)]
	a := linalg.NewVector(rows)
	a[0], a[1] = scale, scale
	b := linalg.NewVector(rows)
	b[0], b[1], b[2] = scale*(1-2*eps), scale, scale*eps
	colsv := []linalg.Vector{a, b}
	for k := rng.Intn(6); k > 0; k-- {
		v := linalg.NewVector(rows)
		if extraRows > 0 {
			for n := 1 + rng.Intn(2); n > 0; n-- {
				v[3+rng.Intn(extraRows)] = 1
			}
		}
		colsv = append(colsv, v)
	}
	// Duplicates of the pair keep the grouping non-trivial.
	for k := rng.Intn(3); k > 0; k-- {
		colsv = append(colsv, colsv[rng.Intn(2)])
	}
	rng.Shuffle(len(colsv), func(i, j int) { colsv[i], colsv[j] = colsv[j], colsv[i] })
	y := linalg.NewVector(rows)
	y[0], y[1], y[2] = 1, 1, 1
	for i := 3; i < rows; i++ {
		y[i] = rng.Float64()
	}
	return linalg.MatrixFromColumns(colsv), y
}

// The dense fallback reads the matrix rebuilt from the sparse forms; when
// it fires, the path must be exactly the dense reference NOMP on Dedup's
// unique matrix.
func TestProblemGramFallbackMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 50; trial++ {
		a, y := fallbackDesign(rng)
		unique, _, _ := Dedup(a)
		m := unique.Cols
		p := NewProblem(a)
		if _, err := p.nompGram(context.Background(), y, m); !errors.Is(err, errGramFallback) {
			t.Fatalf("trial %d: Gram solver did not fall back (err %v)", trial, err)
		}
		got, err := p.nompPath(context.Background(), y, m)
		if err != nil {
			t.Fatal(err)
		}
		want := NOMPPath(unique, y, m)
		if !samePath(got, want) {
			t.Fatalf("trial %d: fallback path differs from NOMPPath on the unique matrix:\ngot  %v\nwant %v", trial, got, want)
		}
		if exported := p.NOMPPath(y, m); !samePath(exported, want) {
			t.Fatalf("trial %d: Problem.NOMPPath differs from the dense reference", trial)
		}
	}
}

// A fallback solve scores its candidates like any other: Solve on a
// template equals a solve that rounds the dense reference path itself.
func TestProblemSolveThroughGramFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	eval := func(sel []int) float64 {
		var s float64
		for _, j := range sel {
			s += float64((j*5)%3) * 0.25
		}
		return math.Abs(float64(len(sel))-2) + s
	}
	for trial := 0; trial < 20; trial++ {
		a, y := fallbackDesign(rng)
		unique, counts, members := Dedup(a)
		m := unique.Cols
		if _, err := NewProblem(a).nompGram(context.Background(), y, m); !errors.Is(err, errGramFallback) {
			t.Fatalf("trial %d: Gram solver did not fall back (err %v)", trial, err)
		}
		budget := minInt(m, unique.Rows)
		wantObj := math.Inf(1)
		var wantSel []int
		seen := map[string]bool{}
		for _, x := range NOMPPath(unique, y, budget) {
			for _, nu := range RoundCandidates(x, counts, m) {
				sel := Expand(nu, members)
				key := fmt.Sprint(sel)
				if seen[key] {
					continue
				}
				seen[key] = true
				if obj := eval(sel); obj < wantObj {
					wantObj, wantSel = obj, sel
				}
			}
		}
		gotSel, gotObj := NewProblem(a).Solve(y, m, nil, eval)
		if gotObj != wantObj || len(gotSel) != len(wantSel) {
			t.Fatalf("trial %d: (%v, %v), want (%v, %v)", trial, gotSel, gotObj, wantSel, wantObj)
		}
		for k := range gotSel {
			if gotSel[k] != wantSel[k] {
				t.Fatalf("trial %d: selection %v, want %v", trial, gotSel, wantSel)
			}
		}
	}
}

// Pooled solver scratch is sized on checkout from the acquiring problem's
// dimensions. A solve cancelled mid-way (as one whose client disconnects is)
// leaves a large problem's state in the scratch it returns to the pool;
// smaller problems that draw that scratch next must answer exactly as
// fresh, uncancelled solves do.
func TestScratchReuseAfterCancelAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	bigA := designWithDuplicates(rng, 90, 60)
	bigY := linalg.NewVector(90)
	for i := range bigY {
		bigY[i] = rng.Float64()
	}
	big := NewProblem(bigA)

	type small struct {
		a       *linalg.Matrix
		y       linalg.Vector
		m       int
		wantSel []int
		wantObj float64
	}
	eval := func(sel []int) float64 {
		var s float64
		for _, j := range sel {
			s += float64((j*7)%5) * 0.25
		}
		return math.Abs(float64(len(sel))-3) + s
	}
	smalls := make([]small, 12)
	for i := range smalls {
		rows := 1 + rng.Intn(20)
		s := small{a: designWithDuplicates(rng, rows, 1+rng.Intn(12)), y: linalg.NewVector(rows), m: 1 + rng.Intn(10)}
		for r := range s.y {
			s.y[r] = rng.Float64()
		}
		s.wantSel, s.wantObj = NewProblem(s.a).Solve(s.y, s.m, nil, eval)
		smalls[i] = s
	}

	reused := 0
	for round := 0; round < 30; round++ {
		// Cancel the large solve from inside its candidate scoring, after a
		// round-dependent number of evaluations.
		// The scratch it held goes back to the pool when it returns.
		ctx, cancel := context.WithCancel(context.Background())
		stopAfter := 1 + round%7
		bigShare := big.Share()
		var bigScratch *solverScratch
		evals := 0
		_, _, err := bigShare.SolveContext(ctx, bigY, 10, nil, func(sel []int) float64 {
			bigScratch = bigShare.scratch
			if evals++; evals == stopAfter {
				cancel()
			}
			return eval(sel)
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: large solve returned %v after %d evaluations, want cancellation", round, err, evals)
		}
		for i, s := range smalls {
			sh := NewProblem(s.a).Share()
			var drew *solverScratch
			gotSel, gotObj := sh.Solve(s.y, s.m, nil, func(sel []int) float64 {
				drew = sh.scratch
				return eval(sel)
			})
			if drew != nil && drew == bigScratch {
				reused++
			}
			if gotObj != s.wantObj || len(gotSel) != len(s.wantSel) {
				t.Fatalf("round %d small %d: (%v, %v), want (%v, %v)", round, i, gotSel, gotObj, s.wantSel, s.wantObj)
			}
			for k := range gotSel {
				if gotSel[k] != s.wantSel[k] {
					t.Fatalf("round %d small %d: selection %v, want %v", round, i, gotSel, s.wantSel)
				}
			}
		}
	}
	if reused == 0 {
		t.Fatal("no small solve drew the scratch a cancelled large solve released; the test exercised nothing")
	}
}
