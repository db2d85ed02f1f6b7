package regress

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"comparesets/internal/linalg"
)

func TestDedupGroupsIdenticalColumns(t *testing.T) {
	a := linalg.MatrixFromColumns([]linalg.Vector{
		{1, 0}, {0, 1}, {1, 0}, {1, 0}, {0, 1},
	})
	unique, counts, members := Dedup(a)
	if unique.Cols != 2 {
		t.Fatalf("unique cols = %d", unique.Cols)
	}
	if !reflect.DeepEqual(counts, []int{3, 2}) {
		t.Errorf("counts = %v", counts)
	}
	if !reflect.DeepEqual(members[0], []int{0, 2, 3}) || !reflect.DeepEqual(members[1], []int{1, 4}) {
		t.Errorf("members = %v", members)
	}
}

func TestDedupDistinguishesClose(t *testing.T) {
	a := linalg.MatrixFromColumns([]linalg.Vector{{1}, {1 + 1e-15}})
	unique, _, _ := Dedup(a)
	if unique.Cols != 2 {
		t.Errorf("distinct floats collapsed: cols = %d", unique.Cols)
	}
}

func TestNOMPPathRecoversSparseCombination(t *testing.T) {
	// y = 2*col0 + 1*col2 exactly.
	a := linalg.MatrixFromColumns([]linalg.Vector{
		{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1},
	})
	y := linalg.Vector{2, 0, 1}
	path := NOMPPath(a, y, 3)
	if len(path) != 3 {
		t.Fatalf("path length = %d", len(path))
	}
	final := path[len(path)-1]
	fit := a.MulVec(final)
	if linalg.SquaredDistance(fit, y) > 1e-10 {
		t.Errorf("final fit %v does not reach y %v", fit, y)
	}
	for j, v := range final {
		if v < 0 {
			t.Errorf("negative coefficient x[%d] = %v", j, v)
		}
	}
}

func TestNOMPPathMonotoneResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		rows, cols := 6+rng.Intn(6), 3+rng.Intn(10)
		colsv := make([]linalg.Vector, cols)
		for j := range colsv {
			v := linalg.NewVector(rows)
			for i := range v {
				if rng.Float64() < 0.4 {
					v[i] = 1
				}
			}
			colsv[j] = v
		}
		a := linalg.MatrixFromColumns(colsv)
		y := linalg.NewVector(rows)
		for i := range y {
			y[i] = rng.Float64()
		}
		path := NOMPPath(a, y, 5)
		prev := math.Inf(1)
		for ell, x := range path {
			r := linalg.SquaredDistance(a.MulVec(x), y)
			if r > prev+1e-9 {
				t.Fatalf("trial %d: residual grew at ℓ=%d: %v > %v", trial, ell+1, r, prev)
			}
			prev = r
		}
	}
}

func TestNOMPPathZeroTarget(t *testing.T) {
	a := linalg.MatrixFromColumns([]linalg.Vector{{1, 0}, {0, 1}})
	path := NOMPPath(a, linalg.Vector{0, 0}, 2)
	for _, x := range path {
		if x.Norm1() > 1e-10 {
			t.Errorf("nonzero solution for zero target: %v", x)
		}
	}
}

func TestRoundExactProportions(t *testing.T) {
	// x ∝ (1/3, 1/3, 1/3) with ample caps: T = 3 gives distance 0.
	x := linalg.Vector{0.5, 0.5, 0.5}
	nu := Round(x, []int{5, 5, 5}, 3)
	if !reflect.DeepEqual(nu, []int{1, 1, 1}) {
		t.Errorf("nu = %v", nu)
	}
}

func TestRoundRespectsCaps(t *testing.T) {
	x := linalg.Vector{1, 0.001}
	nu := Round(x, []int{1, 3}, 4)
	if nu == nil {
		t.Fatal("nil rounding")
	}
	if nu[0] > 1 {
		t.Errorf("cap violated: %v", nu)
	}
}

func TestRoundZeroVector(t *testing.T) {
	if nu := Round(linalg.Vector{0, 0}, []int{1, 1}, 3); nu != nil {
		t.Errorf("nu = %v, want nil", nu)
	}
}

func TestRoundTotalNeverExceedsBudget(t *testing.T) {
	f := func(raw [5]uint8, caps [5]uint8) bool {
		x := linalg.NewVector(5)
		counts := make([]int, 5)
		for i := range x {
			x[i] = float64(raw[i] % 16)
			counts[i] = int(caps[i]%4) + 1
		}
		const m = 4
		nu := Round(x, counts, m)
		if nu == nil {
			return x.Norm1() == 0
		}
		total := 0
		for i, v := range nu {
			if v < 0 || v > counts[i] {
				return false
			}
			total += v
		}
		return total >= 1 && total <= m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpand(t *testing.T) {
	members := [][]int{{0, 2, 3}, {1, 4}}
	sel := Expand([]int{2, 1}, members)
	if !reflect.DeepEqual(sel, []int{0, 1, 2}) {
		t.Errorf("sel = %v", sel)
	}
}

func TestSolvePicksExactSubset(t *testing.T) {
	// Columns are review signatures; the target is the (normalized) sum of
	// columns 1 and 3, so Integer-Regression should select exactly those.
	cols := []linalg.Vector{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 1, 0},
		{0, 1, 0, 1},
		{1, 1, 1, 1},
	}
	a := linalg.MatrixFromColumns(cols)
	y := linalg.Vector{0, 1, 0, 0.5} // = 0.5*(col1 + col3)
	eval := func(sel []int) float64 {
		sum := linalg.NewVector(4)
		for _, j := range sel {
			sum.AddInPlace(cols[j])
		}
		// Normalize like the paper: divide by max entry.
		if m := sum.Max(); m > 0 {
			sum.ScaleInPlace(1 / m)
		}
		return linalg.SquaredDistance(sum, y)
	}
	sel, obj := Solve(a, y, 2, eval)
	sort.Ints(sel)
	if !reflect.DeepEqual(sel, []int{1, 3}) {
		t.Errorf("sel = %v (obj %v)", sel, obj)
	}
	if obj > 1e-10 {
		t.Errorf("obj = %v, want ~0", obj)
	}
}

func TestSolveEmptyMatrix(t *testing.T) {
	sel, obj := Solve(linalg.NewMatrix(3, 0), linalg.Vector{1, 2, 3}, 2, func([]int) float64 { return 0 })
	if sel != nil || !math.IsInf(obj, 1) {
		t.Errorf("sel = %v obj = %v", sel, obj)
	}
}

func TestSolveZeroBudget(t *testing.T) {
	a := linalg.MatrixFromColumns([]linalg.Vector{{1}})
	sel, obj := Solve(a, linalg.Vector{1}, 0, func([]int) float64 { return 0 })
	if sel != nil || !math.IsInf(obj, 1) {
		t.Errorf("sel = %v obj = %v", sel, obj)
	}
}

func TestSolveNeverExceedsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		rows, cols := 5, 12
		colsv := make([]linalg.Vector, cols)
		for j := range colsv {
			v := linalg.NewVector(rows)
			for i := range v {
				if rng.Float64() < 0.5 {
					v[i] = 1
				}
			}
			colsv[j] = v
		}
		a := linalg.MatrixFromColumns(colsv)
		y := linalg.NewVector(rows)
		for i := range y {
			y[i] = rng.Float64()
		}
		m := 1 + rng.Intn(4)
		sel, _ := Solve(a, y, m, func(s []int) float64 {
			sum := linalg.NewVector(rows)
			for _, j := range s {
				sum.AddInPlace(colsv[j])
			}
			return linalg.SquaredDistance(sum.Normalized(), y.Normalized())
		})
		if len(sel) > m {
			t.Fatalf("trial %d: |sel| = %d > m = %d", trial, len(sel), m)
		}
		seen := map[int]bool{}
		for _, j := range sel {
			if seen[j] {
				t.Fatalf("trial %d: duplicate selection %v", trial, sel)
			}
			seen[j] = true
		}
	}
}

func TestSparseCorrelationsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		rows, cols := 5+rng.Intn(40), 1+rng.Intn(30)
		colsv := make([]linalg.Vector, cols)
		for j := range colsv {
			v := linalg.NewVector(rows)
			for i := range v {
				if rng.Float64() < 0.2 {
					v[i] = rng.Float64() * 2
				}
			}
			colsv[j] = v
		}
		a := linalg.MatrixFromColumns(colsv)
		resid := linalg.NewVector(rows)
		for i := range resid {
			resid[i] = rng.NormFloat64()
		}
		want := a.MulVecT(resid)
		got := linalg.NewVector(cols)
		sparse := newSparseColumns(a.Cols, a.Col)
		sparse.correlations(resid, got)
		if !got.ApproxEqual(want, 1e-10) {
			t.Fatalf("trial %d: sparse %v != dense %v", trial, got, want)
		}
	}
}

func TestRoundTopK(t *testing.T) {
	x := linalg.Vector{0.5, 0, 0.9, 0.2}
	counts := []int{1, 1, 1, 1}
	cands := RoundTopK(x, counts, 3)
	if len(cands) != 3 {
		t.Fatalf("candidates = %d", len(cands))
	}
	if !reflect.DeepEqual(cands[0], []int{0, 0, 1, 0}) {
		t.Errorf("T=1 candidate = %v", cands[0])
	}
	if !reflect.DeepEqual(cands[2], []int{1, 0, 1, 1}) {
		t.Errorf("T=3 candidate = %v", cands[2])
	}
	if got := RoundTopK(linalg.Vector{0, 0}, []int{1, 1}, 2); got != nil {
		t.Errorf("zero x candidates = %v", got)
	}
}

// Rounding-strategy ablation: the largest-remainder apportionment of
// Algorithm 1 must not lose to the naive top-K rounding in aggregate over
// random distribution-matching problems — proportionality is the point.
func TestRoundingAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	var lrTotal, topkTotal float64
	for trial := 0; trial < 40; trial++ {
		rows, cols := 12, 18
		colsv := make([]linalg.Vector, cols)
		for j := range colsv {
			v := linalg.NewVector(rows)
			for k := 0; k < 3; k++ {
				v[rng.Intn(rows)] = 1
			}
			colsv[j] = v
		}
		a := linalg.MatrixFromColumns(colsv)
		// Target: normalized sum of a hidden subset — a distribution to
		// match, as in the selection problems.
		hidden := rng.Perm(cols)[:4]
		y := linalg.NewVector(rows)
		for _, j := range hidden {
			y.AddInPlace(colsv[j])
		}
		if m := y.Max(); m > 0 {
			y.ScaleInPlace(1 / m)
		}
		eval := func(sel []int) float64 {
			sum := linalg.NewVector(rows)
			for _, j := range sel {
				sum.AddInPlace(colsv[j])
			}
			if m := sum.Max(); m > 0 {
				sum.ScaleInPlace(1 / m)
			}
			return linalg.SquaredDistance(sum, y)
		}
		_, lr := SolveWithRounding(a, y, 4, RoundCandidates, eval)
		_, tk := SolveWithRounding(a, y, 4, RoundTopK, eval)
		lrTotal += lr
		topkTotal += tk
	}
	if lrTotal > topkTotal+1e-9 {
		t.Errorf("largest-remainder total %v worse than top-K %v", lrTotal, topkTotal)
	}
}

func TestSolveHandlesDuplicateReviews(t *testing.T) {
	// Four identical reviews and a target needing multiplicity: the dedup +
	// expand path must pick distinct originals.
	col := linalg.Vector{1, 1}
	a := linalg.MatrixFromColumns([]linalg.Vector{col, col, col, col})
	y := linalg.Vector{1, 1}
	sel, _ := Solve(a, y, 3, func(s []int) float64 {
		return math.Abs(float64(len(s)) - 2) // prefer exactly two reviews
	})
	if len(sel) != 2 {
		t.Errorf("sel = %v, want two reviews", sel)
	}
	if sel[0] == sel[1] {
		t.Errorf("duplicate original index: %v", sel)
	}
}

// TestSelectionKeyDistinguishesHighIndices: candidates that differ only
// above bit 24 of a column index are distinct, so candidate dedup never
// skips a distinct selection.
func TestSelectionKeyDistinguishesHighIndices(t *testing.T) {
	pairs := [][2][]mult{
		{{{1, 1}}, {{1<<24 | 1, 1}}},
		{{{0, 1}, {2, 1}}, {{2, 1}, {1 << 24, 1}}},
		{{{3, 1}, {5, 1}}, {{3, 1}, {1<<40 | 5, 1}}},
		// Concatenated entries stay unambiguous: [1, 2] is not [258].
		{{{1, 1}, {2, 1}}, {{258, 2}}},
	}
	size := func(nu []mult) (n int) {
		for _, e := range nu {
			n += e.k
		}
		return n
	}
	for _, p := range pairs {
		var s candidateSet
		s.reset()
		if !s.add(p[0], size(p[0])) {
			t.Fatalf("empty set reported %v as seen", p[0])
		}
		if !s.add(p[1], size(p[1])) {
			t.Errorf("candidate %v skipped as a duplicate of %v", p[1], p[0])
		}
		if s.add(p[0], size(p[0])) {
			t.Errorf("candidate %v not recorded", p[0])
		}
	}
}
