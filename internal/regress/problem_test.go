package regress

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"comparesets/internal/linalg"
)

// sparseProblem builds a random 0/1-ish sparse design plus target, the shape
// of real selection instances.
func sparseProblem(rng *rand.Rand, rows, cols, nnz int) (*linalg.Matrix, linalg.Vector) {
	colsv := make([]linalg.Vector, cols)
	for j := range colsv {
		v := linalg.NewVector(rows)
		for k := 0; k < nnz; k++ {
			v[rng.Intn(rows)] = 1
		}
		colsv[j] = v
	}
	y := linalg.NewVector(rows)
	for i := range y {
		y[i] = rng.Float64()
	}
	return linalg.MatrixFromColumns(colsv), y
}

func TestProblemNOMPPathMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 40; trial++ {
		rows := 10 + rng.Intn(60)
		cols := 3 + rng.Intn(20)
		a, y := sparseProblem(rng, rows, cols, 2+rng.Intn(4))
		m := 1 + rng.Intn(8)
		p := NewProblem(a)
		u := p.denseUnique()
		dense := NOMPPath(u, y, minInt(m, minInt(u.Cols, u.Rows)))
		inc := p.NOMPPath(y, m)
		if len(dense) != len(inc) {
			t.Fatalf("trial %d: path lengths %d vs %d", trial, len(dense), len(inc))
		}
		for step := range dense {
			if !dense[step].ApproxEqual(inc[step], 1e-7) {
				t.Fatalf("trial %d step %d:\ndense %v\nincr  %v", trial, step, dense[step], inc[step])
			}
		}
	}
}

func TestProblemNOMPPathResidualMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 20; trial++ {
		a, y := sparseProblem(rng, 40, 12, 3)
		p := NewProblem(a)
		u := p.denseUnique()
		path := p.NOMPPath(y, 6)
		prev := math.Inf(1)
		for step, x := range path {
			r := y.Sub(u.MulVec(x)).Norm2()
			if r > prev+1e-9 {
				t.Fatalf("trial %d: residual grew at step %d: %v > %v", trial, step, r, prev)
			}
			prev = r
			for j, v := range x {
				if v < 0 {
					t.Fatalf("trial %d step %d: negative coefficient x[%d]=%v", trial, step, j, v)
				}
			}
		}
	}
}

func TestProblemSolveMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 25; trial++ {
		a, y := sparseProblem(rng, 30, 10, 3)
		eval := func(sel []int) float64 {
			// A deterministic synthetic objective that depends on the
			// actual selection.
			var s float64
			for _, j := range sel {
				s += float64((j*7)%5) * 0.25
			}
			return math.Abs(float64(len(sel))-3) + s
		}
		wantSel, wantObj := SolveWithRounding(a, y, 5, RoundCandidates, eval)
		p := NewProblem(a)
		gotSel, gotObj := p.Solve(y, 5, RoundCandidates, eval)
		if math.Abs(wantObj-gotObj) > 1e-9 {
			t.Fatalf("trial %d: obj %v vs %v (sel %v vs %v)", trial, wantObj, gotObj, wantSel, gotSel)
		}
	}
}

func TestProblemSolveEmpty(t *testing.T) {
	p := NewProblem(linalg.NewMatrix(0, 0))
	sel, obj := p.Solve(linalg.Vector{}, 3, RoundCandidates, func([]int) float64 { return 0 })
	if sel != nil || !math.IsInf(obj, 1) {
		t.Fatalf("sel=%v obj=%v", sel, obj)
	}
}

func TestProblemReuseAcrossTargets(t *testing.T) {
	// The same Problem solved against different targets must agree with
	// fresh one-shot solves: nothing target-dependent may leak into the
	// cached state.
	rng := rand.New(rand.NewSource(54))
	a, _ := sparseProblem(rng, 30, 12, 3)
	p := NewProblem(a)
	eval := func(sel []int) float64 { return float64(len(sel)) }
	for round := 0; round < 5; round++ {
		y := linalg.NewVector(30)
		for i := range y {
			y[i] = rng.Float64()
		}
		wantSel, wantObj := SolveWithRounding(a, y, 4, RoundCandidates, eval)
		gotSel, gotObj := p.Solve(y, 4, RoundCandidates, eval)
		if math.Abs(wantObj-gotObj) > 1e-9 || len(wantSel) != len(gotSel) {
			t.Fatalf("round %d: (%v, %v) vs (%v, %v)", round, gotSel, gotObj, wantSel, wantObj)
		}
	}
}

func TestProblemDuplicateColumnsDedup(t *testing.T) {
	// Identical columns must collapse to one unique column whose count
	// reflects the multiplicity, and the incremental path must handle the
	// (perfectly conditioned) deduped Gram.
	cols := []linalg.Vector{
		{1, 0, 1, 0},
		{1, 0, 1, 0},
		{0, 1, 0, 0},
		{1, 0, 1, 0},
	}
	p := NewProblem(linalg.MatrixFromColumns(cols))
	if u := p.denseUnique(); u.Cols != 2 {
		t.Fatalf("unique cols = %d, want 2", u.Cols)
	}
	if got := p.groups.appendCounts(nil); len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Fatalf("counts = %v", got)
	}
	y := linalg.Vector{2, 1, 2, 0}
	path := p.NOMPPath(y, 2)
	if len(path) != 2 {
		t.Fatalf("path length %d", len(path))
	}
	// Both unique atoms fit y exactly with coefficients (2, 1).
	last := path[len(path)-1]
	if math.Abs(last[0]-2) > 1e-8 || math.Abs(last[1]-1) > 1e-8 {
		t.Fatalf("final coefficients %v, want [2 1]", last)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Shares of one Problem alias the immutable preprocessed core but carry
// private (pooled) solver scratch: concurrent solves through shares must
// reproduce the sequential one-shot results exactly. Run under -race this
// is the safety proof for the server-level problem cache.
func TestProblemShareConcurrentSolvesDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	a, _ := sparseProblem(rng, 30, 12, 3)
	template := NewProblem(a)
	eval := func(sel []int) float64 {
		var s float64
		for _, j := range sel {
			s += float64((j*3)%7) * 0.5
		}
		return math.Abs(float64(len(sel))-2) + s
	}
	const targets = 6
	ys := make([]linalg.Vector, targets)
	wantObj := make([]float64, targets)
	for i := range ys {
		y := linalg.NewVector(30)
		for j := range y {
			y[j] = rng.Float64()
		}
		ys[i] = y
		_, wantObj[i] = SolveWithRounding(a, y, 4, RoundCandidates, eval)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := template.Share()
			for n := 0; n < 4*targets; n++ {
				i := (w + n) % targets
				_, obj := p.Solve(ys[i], 4, RoundCandidates, eval)
				if math.Abs(obj-wantObj[i]) > 1e-9 {
					t.Errorf("worker %d target %d: obj %v, want %v", w, i, obj, wantObj[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
