package regress

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"comparesets/internal/linalg"
)

// This file holds the dense forms of the pipeline the tests compare the
// template path against: the one-block template of a dense matrix, the
// dense NOMP path with its active-set NNLS and Householder least squares,
// the dense grouping and expansion of Algorithm 1, lines 5 and 9, and a
// candidate loop with a pluggable rounding for the rounding ablation.

// matrixFromColumns builds a matrix from equal-length columns.
func matrixFromColumns(cols []linalg.Vector) *linalg.Matrix {
	if len(cols) == 0 {
		return linalg.NewMatrix(0, 0)
	}
	m := linalg.NewMatrix(len(cols[0]), len(cols))
	for j, c := range cols {
		if len(c) != m.Rows {
			panic(fmt.Sprintf("column %d has %d rows, want %d", j, len(c), m.Rows))
		}
		copy(m.Col(j), c)
	}
	return m
}

// sparseMatrix extracts the non-zeros of every column of a.
func sparseMatrix(a *linalg.Matrix) *linalg.SparseColumns {
	cols := make([]linalg.Vector, a.Cols)
	for j := range cols {
		cols[j] = a.Col(j)
	}
	return linalg.SparseFromColumns(a.Rows, cols)
}

// newProblem is the template of the dense design a: one block over a's
// non-zeros at scale 1.
func newProblem(a *linalg.Matrix) *Problem {
	return NewBlockProblem(Block{Cols: sparseMatrix(a), Scale: 1})
}

// denseUnique rebuilds the problem's unique columns as a dense matrix from
// its design blocks.
func (p *Problem) denseUnique() *linalg.Matrix {
	u := linalg.NewMatrix(p.rows, p.cols)
	for j := 0; j < p.cols; j++ {
		p.blocks.scatter(p.groups.first(j), u.Col(j))
	}
	return u
}

// solve is SolveContext without cancellation.
func solve(p *Problem, y linalg.Vector, m int, eval func([]int) float64) ([]int, float64) {
	sel, obj, err := p.SolveContext(context.Background(), y, m, eval)
	if err != nil {
		panic(err)
	}
	return sel, obj
}

// gramPath is p's Gram-space NOMP path for the target y, copied out of
// solver scratch.
func gramPath(p *Problem, y linalg.Vector, maxAtoms int) []linalg.Vector {
	defer p.releaseScratch()
	path, err := p.nompPath(context.Background(), y, maxAtoms)
	if err != nil {
		panic(err)
	}
	return clonePath(path)
}

// clonePath copies a path out of solver scratch.
func clonePath(path []linalg.Vector) []linalg.Vector {
	out := make([]linalg.Vector, len(path))
	for i, v := range path {
		out[i] = v.Clone()
	}
	return out
}

// densePath is the dense reference NOMP path on a, without cancellation.
func densePath(a *linalg.Matrix, y linalg.Vector, maxAtoms int) []linalg.Vector {
	path, err := nompPathDense(context.Background(), a, y, maxAtoms)
	if err != nil {
		panic(err)
	}
	return path
}

// nompPathDense is the reference NOMP implementation: non-negative OMP on
// (a, y), returning the solution after each of the first maxAtoms greedy
// support extensions (path[ℓ-1] has at most ℓ atoms), with a cancellation
// checkpoint per extension. Each extension re-solves the NNLS over the
// support columns from scratch with nnls.
func nompPathDense(ctx context.Context, a *linalg.Matrix, y linalg.Vector, maxAtoms int) ([]linalg.Vector, error) {
	n := a.Cols
	if maxAtoms > n {
		maxAtoms = n
	}
	if maxAtoms > a.Rows {
		// The NNLS subproblem needs at least as many rows as support
		// columns; larger supports cannot improve an exact fit anyway.
		maxAtoms = a.Rows
	}
	sparse := sparseMatrix(a)
	corr := linalg.NewVector(n)
	path := make([]linalg.Vector, 0, maxAtoms)
	support := []int{}
	inSupport := make([]bool, n)
	x := linalg.NewVector(n)
	resid := y.Clone()
	const tol = 1e-10
	for len(path) < maxAtoms {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Greedy atom: maximum positive correlation with the residual.
		for j := range corr {
			idx, val := sparse.Col(j)
			corr[j] = linalg.GatherDotKernel(idx, val, resid)
		}
		best, bestC := -1, tol
		for j := 0; j < n; j++ {
			if !inSupport[j] && corr[j] > bestC {
				best, bestC = j, corr[j]
			}
		}
		if best < 0 {
			// No atom improves the fit; replicate the last solution for
			// the remaining budgets so callers still get m entries.
			for len(path) < maxAtoms {
				path = append(path, x.Clone())
			}
			break
		}
		support = append(support, best)
		inSupport[best] = true

		// nnls returns its best iterate alongside any error.
		z, _ := nnls(selectColumns(a, support), y)
		// Install coefficients; evict zeroed atoms from the support.
		x = linalg.NewVector(n)
		live := support[:0]
		for k, j := range support {
			if z[k] > tol {
				x[j] = z[k]
				live = append(live, j)
			} else {
				inSupport[j] = false
			}
		}
		support = live
		resid = y.Sub(a.MulVec(x))
		path = append(path, x.Clone())
	}
	return path, nil
}

// errNNLSNoConvergence is returned when nnls's active-set loop exceeds its
// iteration budget. nnls returns its best iterate alongside the error.
var errNNLSNoConvergence = errors.New("NNLS did not converge")

// nnls solves min_x ||A x - b||_2 subject to x >= 0 using the Lawson–Hanson
// active-set algorithm, re-solving the passive columns' least squares from
// scratch on every step. It returns the solution vector of length A.Cols.
func nnls(a *linalg.Matrix, b linalg.Vector) (linalg.Vector, error) {
	n := a.Cols
	x := linalg.NewVector(n)
	if n == 0 {
		return x, nil
	}
	passive := make([]bool, n) // true = in the passive (free) set
	// w = Aᵀ (b - A x), the negative gradient.
	resid := b.Clone()
	w := a.MulVecT(resid)

	const tol = 1e-10
	maxOuter := 3 * n
	if maxOuter < 30 {
		maxOuter = 30
	}
	for outer := 0; outer < maxOuter; outer++ {
		// Pick the most violated constraint among the active set.
		best, bestW := -1, tol
		for j := 0; j < n; j++ {
			if !passive[j] && w[j] > bestW {
				best, bestW = j, w[j]
			}
		}
		if best < 0 {
			return x, nil // KKT satisfied
		}
		passive[best] = true

		// Inner loop: solve unconstrained LS on the passive set; if any
		// passive coefficient goes non-positive, step back and shrink.
		for inner := 0; inner < maxOuter; inner++ {
			var idx []int
			for j, p := range passive {
				if p {
					idx = append(idx, j)
				}
			}
			z, err := leastSquares(selectColumns(a, idx), b)
			if err != nil {
				return x, err
			}
			if allPositiveSlice(z, tol) {
				for k, j := range idx {
					x[j] = z[k]
				}
				break
			}
			// Find the limiting step alpha along (z - x) on the passive set.
			alpha := math.Inf(1)
			for k, j := range idx {
				if z[k] <= tol {
					den := x[j] - z[k]
					if den > 0 {
						if r := x[j] / den; r < alpha {
							alpha = r
						}
					} else {
						alpha = 0
					}
				}
			}
			if math.IsInf(alpha, 1) {
				alpha = 0
			}
			for k, j := range idx {
				x[j] += alpha * (z[k] - x[j])
				if x[j] <= tol {
					x[j] = 0
					passive[j] = false
				}
			}
		}
		// Refresh gradient.
		resid = b.Sub(a.MulVec(x))
		w = a.MulVecT(resid)
	}
	return x, errNNLSNoConvergence
}

// selectColumns returns a new matrix assembled from the listed columns of
// a, in order. Indices may repeat.
func selectColumns(a *linalg.Matrix, idx []int) *linalg.Matrix {
	out := linalg.NewMatrix(a.Rows, len(idx))
	for k, j := range idx {
		copy(out.Col(k), a.Col(j))
	}
	return out
}

// leastSquares solves min_x ||A x - b||_2 via QR decomposition with
// Householder reflections. A must have Rows >= Cols; a rank-deficient A
// yields the solution of back-substitution with tiny pivots guarded to
// zero.
func leastSquares(a *linalg.Matrix, b linalg.Vector) (linalg.Vector, error) {
	if a.Cols == 0 {
		return linalg.Vector{}, nil
	}
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("underdetermined system %dx%d", a.Rows, a.Cols)
	}
	r := a.Clone()
	y := b.Clone()
	// Householder QR, applying reflections to y as we go.
	for k := 0; k < r.Cols; k++ {
		// Build the reflector for column k below row k.
		var norm float64
		for i := k; i < r.Rows; i++ {
			v := r.At(i, k)
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			continue
		}
		if r.At(k, k) > 0 {
			norm = -norm
		}
		// v = x - norm*e1, stored in place below the diagonal.
		vk := r.At(k, k) - norm
		r.Set(k, k, norm)
		if vk == 0 {
			continue
		}
		// Normalize so v[0] = 1 implicitly; beta = -vk/norm.
		beta := -vk / norm
		// Store scaled reflector tail in a scratch vector.
		tail := make([]float64, r.Rows-k)
		tail[0] = 1
		for i := k + 1; i < r.Rows; i++ {
			tail[i-k] = r.At(i, k) / vk
			r.Set(i, k, 0)
		}
		// Apply H = I - beta * v vᵀ to the remaining columns.
		for j := k + 1; j < r.Cols; j++ {
			var s float64
			for i := k; i < r.Rows; i++ {
				s += tail[i-k] * r.At(i, j)
			}
			s *= beta
			for i := k; i < r.Rows; i++ {
				r.Set(i, j, r.At(i, j)-s*tail[i-k])
			}
		}
		// Apply H to y.
		var s float64
		for i := k; i < r.Rows; i++ {
			s += tail[i-k] * y[i]
		}
		s *= beta
		for i := k; i < r.Rows; i++ {
			y[i] -= s * tail[i-k]
		}
	}
	// Back substitution on the upper-triangular R.
	x := linalg.NewVector(r.Cols)
	for k := r.Cols - 1; k >= 0; k-- {
		s := y[k]
		for j := k + 1; j < r.Cols; j++ {
			s -= r.At(k, j) * x[j]
		}
		d := r.At(k, k)
		if math.Abs(d) < 1e-12 {
			x[k] = 0
			continue
		}
		x[k] = s / d
	}
	return x, nil
}

// dedup groups identical columns of a (Algorithm 1, line 5): the matrix of
// each group's first column, the multiplicity of each group, and each
// group's ascending original column indices, groups in order of first
// occurrence.
func dedup(a *linalg.Matrix) (unique *linalg.Matrix, counts []int, members [][]int) {
	d, _, _ := newStack([]Block{{Cols: sparseMatrix(a), Scale: 1}})
	sc := dedupPool.Get().(*dedupScratch)
	g := groupColumns(sc, d, a.Cols)
	putDedupScratch(sc)
	n := g.len()
	unique = linalg.NewMatrix(a.Rows, n)
	counts = make([]int, n)
	members = make([][]int, n)
	for k := 0; k < n; k++ {
		for _, j := range g.mem[g.off[k]:g.off[k+1]] {
			members[k] = append(members[k], int(j))
		}
		counts[k] = len(members[k])
		copy(unique.Col(k), a.Col(members[k][0]))
	}
	return unique, counts, members
}

// expand maps a dense multiplicity vector over unique columns back to
// original column indices (Algorithm 1, line 9): for each unique column i,
// the first ν[i] of its members are selected.
func expand(nu []int, members [][]int) []int {
	var out []int
	for i, k := range nu {
		out = append(out, members[i][:min(k, len(members[i]))]...)
	}
	sort.Ints(out)
	return out
}

// roundCandidates is Algorithm 1, line 8, on dense vectors: one
// largest-remainder apportionment of x/‖x‖₁ (the reference apportionInto)
// per feasible total T = 1..maxTotal, or nil when x is zero.
func roundCandidates(x linalg.Vector, counts []int, maxTotal int) [][]int {
	u := x.Normalized()
	if u.Norm1() == 0 {
		return nil
	}
	var out [][]int
	for total := 1; total <= maxTotal; total++ {
		nu := make([]int, len(u))
		if ok, _ := apportionInto(u, counts, total, nu, nil); ok {
			out = append(out, nu)
		}
	}
	return out
}

// roundTopK is the naive rounding of the rounding-strategy ablation: for
// each T, one unit on each of the T columns with the largest continuous
// coefficients, ignoring proportionality.
func roundTopK(x linalg.Vector, counts []int, maxTotal int) [][]int {
	type pair struct {
		j int
		v float64
	}
	var ps []pair
	for j, v := range x {
		if v > 0 && counts[j] > 0 {
			ps = append(ps, pair{j, v})
		}
	}
	if len(ps) == 0 {
		return nil
	}
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].v != ps[b].v {
			return ps[a].v > ps[b].v
		}
		return ps[a].j < ps[b].j
	})
	var out [][]int
	for total := 1; total <= maxTotal && total <= len(ps); total++ {
		nu := make([]int, len(x))
		for _, p := range ps[:total] {
			nu[p.j] = 1
		}
		out = append(out, nu)
	}
	return out
}

// solveWithRounding is the Integer-Regression candidate loop on dense
// vectors with a pluggable rounding: every iterate of the template's NOMP
// path for budgets 1..m is rounded by round, expanded, deduplicated on
// the expanded selection, and scored with eval in that order. With
// roundCandidates it is the dense reference of SolveContext.
func solveWithRounding(a *linalg.Matrix, y linalg.Vector, m int, round func(x linalg.Vector, counts []int, maxTotal int) [][]int, eval func([]int) float64) ([]int, float64) {
	_, counts, members := dedup(a)
	var best []int
	bestObj := math.Inf(1)
	seen := map[string]bool{}
	for _, x := range gramPath(newProblem(a), y, m) {
		for _, nu := range round(x, counts, m) {
			sel := expand(nu, members)
			if key := fmt.Sprint(sel); seen[key] {
				continue
			} else {
				seen[key] = true
			}
			if obj := eval(sel); obj < bestObj {
				bestObj, best = obj, sel
			}
		}
	}
	return best, bestObj
}
