package regress

import (
	"context"
	"fmt"
	"math"
	"sort"

	"comparesets/internal/linalg"
)

// This file holds the dense forms of the pipeline the tests compare the
// template path against: the one-block template of a dense matrix, the
// dense grouping and expansion of Algorithm 1, lines 5 and 9, and a
// candidate loop with a pluggable rounding for the rounding ablation.

// newProblem is the template of the dense design a: one block over a's
// non-zeros at scale 1.
func newProblem(a *linalg.Matrix) *Problem {
	return NewBlockProblem(Block{Cols: linalg.SparseFromMatrix(a), Scale: 1})
}

// solve is SolveContext without cancellation.
func solve(p *Problem, y linalg.Vector, m int, eval func([]int) float64) ([]int, float64) {
	sel, obj, err := p.SolveContext(context.Background(), y, m, eval)
	if err != nil {
		panic(err)
	}
	return sel, obj
}

// gramPath is p's NOMP path for the target y, copied out of solver
// scratch: the Gram-space solver, or its dense fallback.
func gramPath(p *Problem, y linalg.Vector, maxAtoms int) []linalg.Vector {
	defer p.releaseScratch()
	path, err := p.nompPath(context.Background(), y, maxAtoms)
	if err != nil {
		panic(err)
	}
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

// dedup groups identical columns of a (Algorithm 1, line 5): the matrix of
// each group's first column, the multiplicity of each group, and each
// group's ascending original column indices, groups in order of first
// occurrence.
func dedup(a *linalg.Matrix) (unique *linalg.Matrix, counts []int, members [][]int) {
	d, _, _ := newStack([]Block{{Cols: linalg.SparseFromMatrix(a), Scale: 1}})
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
