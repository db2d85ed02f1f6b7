// Package regress implements the Integer-Regression algorithm of Lappas et
// al. (KDD 2012) as generalized by the paper (Algorithm 1): solve the
// continuous relaxation of the review-selection problem with NOMP
// (non-negative orthogonal matching pursuit), then round the continuous
// solution to an integer review-multiplicity vector, evaluating the true
// (combinatorial) objective for every sparsity budget ℓ = 1..m and keeping
// the best.
//
// The package is algorithm-agnostic about what the columns mean: callers
// (internal/core) construct the design matrix W/V and target vector Υ, and
// supply an evaluation callback computing the exact objective of a candidate
// selection, because the true opinion/aspect vectors of a selected set are
// normalized nonlinearly and cannot be read off the linear model.
package regress

import (
	"context"
	"math"
	"sort"
	"sync"

	"comparesets/internal/linalg"
)

// dedupScratch is the per-call working state of groupColumns, pooled across
// calls so the grouping pass allocates nothing on the selection hot path:
// the hash index (with collision chains), the per-column group assignment,
// and the per-group bookkeeping all come back from the pool. Only the
// returned grouping is a fresh allocation, because callers retain it.
type dedupScratch struct {
	index    map[uint64]int32 // column hash → head of the group chain
	chain    []int32          // per group: next group with the same hash
	colGroup []int32          // per column: assigned group
	firstCol []int32          // per group: representative (first) column
	count    []int32          // per group: member count
}

var dedupPool = sync.Pool{New: func() any {
	return &dedupScratch{index: make(map[uint64]int32)}
}}

// hashColumn folds a column's exact float64 bit patterns with FNV-1a; Dedup
// verifies candidate groups bit-for-bit, so collisions cost a compare, never
// correctness.
func hashColumn(col linalg.Vector) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, v := range col {
		h ^= math.Float64bits(v)
		h *= prime
	}
	return h
}

// sameColumn reports bit-exact equality (the notion the old byte-key used:
// design entries come from the small set {0, 1, λ, μ}).
func sameColumn(a, b linalg.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Dedup groups identical columns of a. It returns the deduplicated matrix,
// the multiplicity cᵢ of each unique column, and for each unique column the
// indices of the original columns it represents (in ascending order). This
// is DeduplicateColumns of Algorithm 1, line 5. Groups are ordered by first
// occurrence, exactly as the original columns are scanned.
func Dedup(a *linalg.Matrix) (unique *linalg.Matrix, counts []int, members [][]int) {
	g := groupColumns(a)
	n := g.len()
	unique = linalg.NewMatrix(a.Rows, n)
	counts = make([]int, n)
	members = make([][]int, n)
	backing := make([]int, len(g.mem))
	for i, j := range g.mem {
		backing[i] = int(j)
	}
	for k := 0; k < n; k++ {
		lo, hi := g.off[k], g.off[k+1]
		counts[k] = int(hi - lo)
		members[k] = backing[lo:hi:hi]
		copy(unique.Col(k), a.Col(members[k][0]))
	}
	return unique, counts, members
}

// groups is the compact form of a Dedup grouping: group g's members, the
// ascending original column indices, are mem[off[g]:off[g+1]], so its
// multiplicity is off[g+1] − off[g]. Both arrays share one allocation.
type groups struct {
	off []int32 // len(groups) + 1 offsets into mem
	mem []int32 // every column, grouped
}

// len returns the number of groups.
func (g groups) len() int { return len(g.off) - 1 }

// count returns group k's multiplicity.
func (g groups) count(k int) int { return int(g.off[k+1] - g.off[k]) }

// first returns group k's first column, which holds the group's values.
func (g groups) first(k int) int { return int(g.mem[g.off[k]]) }

// appendCounts appends every group's multiplicity to dst.
func (g groups) appendCounts(dst []int) []int {
	for k := 0; k < g.len(); k++ {
		dst = append(dst, g.count(k))
	}
	return dst
}

// groupColumns is the grouping pass of Dedup: the ascending member list of
// every group of identical columns, groups in order of first occurrence.
// A group's first member is its first column, so callers read a group's
// values straight from a without a unique copy.
func groupColumns(a *linalg.Matrix) groups {
	sc := dedupPool.Get().(*dedupScratch)
	defer func() {
		clear(sc.index)
		sc.chain = sc.chain[:0]
		sc.colGroup = sc.colGroup[:0]
		sc.firstCol = sc.firstCol[:0]
		sc.count = sc.count[:0]
		dedupPool.Put(sc)
	}()
	if cap(sc.colGroup) < a.Cols {
		sc.colGroup = make([]int32, 0, a.Cols)
	}
	// Grouping pass: hash each column and walk the (usually empty) collision
	// chain comparing bits against each candidate group's representative.
	for j := 0; j < a.Cols; j++ {
		col := a.Col(j)
		h := hashColumn(col)
		g := int32(-1)
		head, ok := sc.index[h]
		if ok {
			for c := head; c >= 0; c = sc.chain[c] {
				if sameColumn(a.Col(int(sc.firstCol[c])), col) {
					g = c
					break
				}
			}
		}
		if g < 0 {
			g = int32(len(sc.firstCol))
			sc.firstCol = append(sc.firstCol, int32(j))
			sc.count = append(sc.count, 0)
			if ok {
				sc.chain = append(sc.chain, head)
			} else {
				sc.chain = append(sc.chain, -1)
			}
			sc.index[h] = g
		}
		sc.count[g]++
		sc.colGroup = append(sc.colGroup, g)
	}
	// Output pass: offsets are the running sums of the counts; members
	// within a group come out ascending because columns are scanned in
	// order. sc.count is reused as each group's fill cursor.
	ng := len(sc.firstCol)
	slab := make([]int32, ng+1+a.Cols)
	out := groups{off: slab[: ng+1 : ng+1], mem: slab[ng+1:]}
	for g, n := range sc.count {
		out.off[g+1] = out.off[g] + n
		sc.count[g] = out.off[g]
	}
	for j, g := range sc.colGroup {
		out.mem[sc.count[g]] = int32(j)
		sc.count[g]++
	}
	return out
}

// sparseColumns extracts each column's non-zero entries once; the NOMP
// correlation step then iterates only those. Design matrices here are 0/1
// opinion/aspect indicators scaled by λ/μ — typically >95% zero — so the
// sparse walk removes the dominant cost of the greedy atom search.
type sparseColumns struct {
	off []int32   // column j's entries are idx/val[off[j]:off[j+1]]
	idx []int32   // row indices of non-zeros, column after column
	val []float64 // matching values
}

// col returns column j's row indices and values.
func (s *sparseColumns) col(j int) ([]int32, []float64) {
	lo, hi := s.off[j], s.off[j+1]
	return s.idx[lo:hi], s.val[lo:hi]
}

// newSparseColumns extracts the non-zeros of n columns, reading column j
// from col(j).
func newSparseColumns(n int, col func(j int) linalg.Vector) sparseColumns {
	nnz := 0
	for j := 0; j < n; j++ {
		for _, v := range col(j) {
			if v != 0 {
				nnz++
			}
		}
	}
	// The offsets and row indices share one int32 slab; the values take
	// one float64 slab.
	ints := make([]int32, n+1+nnz)
	s := sparseColumns{off: ints[: n+1 : n+1], idx: ints[n+1 : n+1], val: make([]float64, 0, nnz)}
	for j := 0; j < n; j++ {
		for i, v := range col(j) {
			if v != 0 {
				s.idx = append(s.idx, int32(i))
				s.val = append(s.val, v)
			}
		}
		s.off[j+1] = int32(len(s.idx))
	}
	return s
}

// correlations computes aᵀ·resid using the sparse column structure.
func (s *sparseColumns) correlations(resid linalg.Vector, out linalg.Vector) {
	for j := 0; j+1 < len(s.off); j++ {
		idx, val := s.col(j)
		out[j] = linalg.GatherDotKernel(idx, val, resid)
	}
}

// NOMPPath runs non-negative OMP on (a, y) and returns the solution after
// each of the first maxAtoms greedy support extensions: path[ℓ-1] is the
// coefficient vector with at most ℓ atoms. The greedy path realizes the
// "for ℓ = 1..m: x = NOMP(Ṽ, Υ)" loop of Algorithm 1 in one pass.
func NOMPPath(a *linalg.Matrix, y linalg.Vector, maxAtoms int) []linalg.Vector {
	path, _ := nompPathDense(context.Background(), a, y, maxAtoms)
	return path
}

// nompPathDense is the reference NOMP implementation behind NOMPPath, with
// a cancellation checkpoint per atom extension; it also serves as the
// fallback when the Gram-space solver hits a numerical failure.
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
	sparse := newSparseColumns(a.Cols, a.Col)
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
		sparse.correlations(resid, corr)
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

		sub := a.SelectColumns(support)
		z, err := linalg.NNLS(sub, y)
		if err != nil && z == nil {
			// Unrecoverable; keep the previous iterate.
			path = append(path, x.Clone())
			continue
		}
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

// Round converts a continuous coefficient vector x into an integer
// multiplicity vector ν minimizing ‖ν/‖ν‖₁ − x/‖x‖₁‖₁ subject to νᵢ ≤
// counts[i] and ‖ν‖₁ ≤ maxTotal (Algorithm 1, line 8). It searches every
// total T = 1..maxTotal with largest-remainder apportionment and returns the
// best ν, or nil when x is identically zero.
func Round(x linalg.Vector, counts []int, maxTotal int) []int {
	u := x.Normalized()
	if u.Norm1() == 0 {
		return nil
	}
	capacity := 0
	for _, c := range counts {
		capacity += c
	}
	var r rounder
	r.load(u, counts)
	var best []int
	bestDist := math.Inf(1)
	for total := 1; total <= maxTotal && total <= capacity; total++ {
		sparse, ok := r.apportion(total)
		if !ok {
			continue
		}
		nu := make([]int, len(u))
		for _, e := range sparse {
			nu[e.idx] = e.k
		}
		d := roundingDistance(nu, u, total)
		if d < bestDist-1e-15 {
			bestDist = d
			best = nu
		}
	}
	return best
}

// RoundCandidates returns one apportionment per feasible total T = 1..
// maxTotal. Solve evaluates each with the exact objective, which subsumes
// Round's L1 criterion: the L1-closest candidate is always in the pool, and
// the true objective — not the relaxation — picks the winner.
//
// All candidate vectors are carved from one slab. Problem.Solve with a nil
// Rounding scores the same candidates without materializing them.
func RoundCandidates(x linalg.Vector, counts []int, maxTotal int) [][]int {
	u := x.Normalized()
	if u.Norm1() == 0 {
		return nil
	}
	capacity := 0
	for _, c := range counts {
		capacity += c
	}
	limit := maxTotal
	if limit > capacity {
		limit = capacity
	}
	if limit <= 0 {
		return nil
	}
	n := len(u)
	out := make([][]int, 0, limit)
	slab := make([]int, limit*n)
	var r rounder
	r.load(u, counts)
	for total := 1; total <= limit; total++ {
		sparse, ok := r.apportion(total)
		if !ok {
			continue
		}
		nu := slab[len(out)*n : (len(out)+1)*n : (len(out)+1)*n]
		for _, e := range sparse {
			nu[e.idx] = e.k
		}
		out = append(out, nu)
	}
	return out
}

// RoundTopK is the naive alternative rounding used by the rounding-strategy
// ablation: take the T columns with the largest continuous coefficients
// (one unit each, ignoring proportionality). Comparing Solve against
// SolveWithRounding(RoundTopK) quantifies what the largest-remainder
// apportionment of Algorithm 1 buys.
func RoundTopK(x linalg.Vector, counts []int, maxTotal int) [][]int {
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

// Rounding produces candidate integer multiplicity vectors from a
// continuous NOMP iterate. Solve/SolveContext accept nil as "default
// RoundCandidates on solver scratch" — the hot-path spelling that skips
// the per-iterate slab allocations of the exported function.
type Rounding func(x linalg.Vector, counts []int, maxTotal int) [][]int

// SolveWithRounding is Solve with a pluggable rounding strategy (see
// RoundCandidates and RoundTopK). One-shot convenience over
// NewProblem(a).Solve; callers re-solving the same design against many
// targets should build the Problem once instead.
func SolveWithRounding(a *linalg.Matrix, y linalg.Vector, m int, round Rounding, eval func(selected []int) float64) ([]int, float64) {
	if a.Cols == 0 || m <= 0 {
		return nil, math.Inf(1)
	}
	return NewProblem(a).Solve(y, m, round, eval)
}

func roundingDistance(nu []int, u linalg.Vector, total int) float64 {
	var d float64
	for i := range nu {
		d += math.Abs(float64(nu[i])/float64(total) - u[i])
	}
	return d
}

// Solve runs the full Integer-Regression pipeline: deduplicate the columns
// of a, walk the NOMP path for sparsity budgets 1..m, round each continuous
// iterate, expand multiplicities back to original column indices, score each
// candidate with eval (the exact combinatorial objective; smaller is
// better), and return the best selection with its objective. It returns
// (nil, +Inf) when no non-empty candidate exists.
func Solve(a *linalg.Matrix, y linalg.Vector, m int, eval func(selected []int) float64) ([]int, float64) {
	return SolveWithRounding(a, y, m, nil, eval)
}

// SolveContext is Solve with cooperative cancellation (see
// Problem.SolveContext for the checkpoint semantics).
func SolveContext(ctx context.Context, a *linalg.Matrix, y linalg.Vector, m int, eval func(selected []int) float64) ([]int, float64, error) {
	if a.Cols == 0 || m <= 0 {
		return nil, math.Inf(1), nil
	}
	return NewProblem(a).SolveContext(ctx, y, m, nil, eval)
}

// Expand maps a multiplicity vector over unique columns back to original
// column indices (Algorithm 1, line 9): for each unique column i, the first
// ν[i] of its member columns are selected.
func Expand(nu []int, members [][]int) []int {
	size := 0
	for i, k := range nu {
		if k > len(members[i]) {
			k = len(members[i])
		}
		size += k
	}
	out := make([]int, 0, size)
	for i, k := range nu {
		for t := 0; t < k && t < len(members[i]); t++ {
			out = append(out, members[i][t])
		}
	}
	sort.Ints(out)
	return out
}
