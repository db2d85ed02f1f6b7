package regress

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

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

// A template keeps only the sparse forms of the unique columns; the dense
// matrix the fallback rebuilds from them must be Dedup's unique matrix, and
// the grouping must be Dedup's grouping.
func TestProblemDenseUniqueRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		a := designWithDuplicates(rng, 1+rng.Intn(40), 1+rng.Intn(30))
		unique, counts, members := Dedup(a)
		p := NewProblem(a)
		if got := p.denseUnique(); !sameMatrix(got, unique) {
			t.Fatalf("trial %d: rebuilt %dx%d matrix differs from Dedup's %dx%d unique matrix",
				trial, got.Rows, got.Cols, unique.Rows, unique.Cols)
		}
		if len(p.Counts) != len(counts) || len(p.Members) != len(members) {
			t.Fatalf("trial %d: %d/%d groups, Dedup has %d/%d", trial, len(p.Counts), len(p.Members), len(counts), len(members))
		}
		for g := range counts {
			if p.Counts[g] != counts[g] || len(p.Members[g]) != len(members[g]) {
				t.Fatalf("trial %d group %d: count %d members %v, Dedup has %d %v",
					trial, g, p.Counts[g], p.Members[g], counts[g], members[g])
			}
			for k, j := range members[g] {
				if p.Members[g][k] != j {
					t.Fatalf("trial %d group %d: members %v, Dedup has %v", trial, g, p.Members[g], members[g])
				}
			}
		}
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
