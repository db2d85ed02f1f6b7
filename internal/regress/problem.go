package regress

import (
	"context"
	"math"
	"sync"
	"time"
	"unsafe"

	"comparesets/internal/linalg"
	"comparesets/internal/obs"
)

// Problem is a preprocessed Integer-Regression instance: the dedup grouping
// of the design together with every target-independent structure the
// solver reads — the design itself, as scaled blocks over shared sparse
// columns, and the unique columns' Gram matrix that powers the incremental
// NNLS. Build one per design and reuse it across targets: CompaReSetS+
// re-solves the same per-item design against a fresh target on every
// sweep, and the dedup grouping, sparsity pattern, and Gram matrix are all
// invariant across those sweeps.
//
// Cached problems live for the life of a corpus, so a problem holds no
// copy of its design, dense or sparse: its blocks point at the review
// columns the feature store keeps once per item. What it owns is the
// grouping (flat int32 offsets over one member array), the Gram matrix
// (its packed lower triangle) and the block list: four allocations with
// the header, whatever its size. Bytes counts them.
//
// A Problem additionally owns reusable solver scratch, so it is NOT safe
// for concurrent use; give each goroutine its own Problem (the per-item
// fan-out in internal/core assigns every item's Problem to one worker).
type Problem struct {
	rows, cols int       // shape of the deduplicated design
	groups     groups    // the grouping of the design's identical columns
	blocks     stack     // the design, read at each group's first column
	gram       []float64 // the unique columns' Gram matrix, packed (see gramAt)
	scratch    *solverScratch
}

// scratchPool recycles solver scratch across problems and shares: every
// buffer is grown to the acquiring problem's size on checkout
// (scratchState) and fully reset before use, so a pooled scratch carries no
// state between solves. Pooling matters because cached problem templates
// hand out a fresh Share per selection — without it every request would
// reallocate the whole NNLS working set per item.
var scratchPool = sync.Pool{New: func() any { return &solverScratch{} }}

// solverScratch holds every buffer the NOMP/rounding pipeline needs, sized
// on first use and reused across the solves of one checkout.
type solverScratch struct {
	c         linalg.Vector // Aᵀy over unique columns
	corr      linalg.Vector // residual correlations
	x         linalg.Vector // current NOMP iterate
	inSupport []bool
	support   []int
	passive   []int // NNLS passive set, in factorization order
	chol      *linalg.UpdatableCholesky
	ss        linalg.Vector // supportSolver row/solve workspace

	// Candidate loop: the normalized iterate and its rounder, the
	// candidates scored this solve, and the expanded selection.
	u      linalg.Vector
	counts []int // the groups' multiplicities, the rounding caps
	rnd    rounder
	seen   candidateSet
	selBuf []int

	// NOMP path scratch: iterate copies live back to back in pathSlab and
	// path holds one view per iterate. Slab growth may move the backing
	// array; earlier views keep their (already written, never mutated) old
	// backing, so consumers remain correct either way.
	pathSlab linalg.Vector
	path     []linalg.Vector
}

// cloneIterate copies x into the path slab and returns a capped view.
func (s *solverScratch) cloneIterate(x linalg.Vector) linalg.Vector {
	off := len(s.pathSlab)
	s.pathSlab = append(s.pathSlab, x...)
	return s.pathSlab[off:len(s.pathSlab):len(s.pathSlab)]
}

func (p *Problem) scratchState(maxAtoms int) *solverScratch {
	n := p.cols
	if p.scratch == nil {
		p.scratch = scratchPool.Get().(*solverScratch)
	}
	s := p.scratch
	// Pooled buffers may come from a different-sized problem: grow-only
	// resizing, with every slice resliced to this problem's n. All state is
	// reset before use (resetSolver, full copies, clear), so stale values
	// from a previous holder can never leak into a solve.
	s.c = growVec(s.c, n)
	s.corr = growVec(s.corr, n)
	s.x = growVec(s.x, n)
	if cap(s.inSupport) < n {
		s.inSupport = make([]bool, n)
	}
	s.inSupport = s.inSupport[:n]
	if s.chol == nil {
		s.chol = linalg.NewUpdatableCholesky(maxAtoms)
	}
	if cap(s.ss) < 2*maxAtoms+2 {
		s.ss = linalg.NewVector(2*maxAtoms + 2)
	}
	if cap(s.pathSlab) < maxAtoms*n {
		s.pathSlab = make(linalg.Vector, 0, maxAtoms*n)
	}
	return s
}

// growVec reslices v to length n, reallocating only when capacity is short.
func growVec(v linalg.Vector, n int) linalg.Vector {
	if cap(v) < n {
		return linalg.NewVector(n)
	}
	return v[:n]
}

// releaseScratch returns the problem's scratch to the pool. Called at the
// end of a solve; the next solve on this problem (or any other) checks a
// scratch out again.
func (p *Problem) releaseScratch() {
	if s := p.scratch; s != nil {
		p.scratch = nil
		scratchPool.Put(s)
	}
}

// NewBlockProblem preprocesses the design that stacks the blocks top to
// bottom: group identical columns and compute the Gram matrix of the
// unique ones. The problem keeps the blocks, which alias their columns, so
// those must stay unchanged for its life. Each group's values are read
// from its first column, and the design is never assembled: Gram entry
// (j, k) is column j's stacked non-zeros dotted, in GatherDotKernel's
// order, with column k scattered into a dense scratch column, which is
// exactly the sum the assembled dense matrix gives.
func NewBlockProblem(blocks ...Block) *Problem {
	d, rows, cols := newStack(blocks)
	sc := dedupPool.Get().(*dedupScratch)
	defer putDedupScratch(sc)
	g := groupColumns(sc, d, cols)
	n := g.len()
	p := &Problem{
		rows:   rows,
		cols:   n,
		groups: g,
		blocks: d,
		gram:   make([]float64, n*(n+1)/2),
	}
	if cap(sc.col) < rows {
		sc.col = make([]float64, rows)
	}
	col := sc.col[:rows]
	clear(col)
	for k := 0; k < n; k++ {
		d.scatter(g.first(k), col)
		for j := k; j < n; j++ {
			p.gram[j*(j+1)/2+k] = d.dot(g.first(j), col)
		}
		clear(col)
	}
	return p
}

// Bytes returns the bytes the problem owns: its header, grouping, Gram
// matrix and block list. The blocks' columns belong to whoever built the
// problem (the feature store, for served templates) and are not counted;
// a Share owns the same bytes as its template.
func (p *Problem) Bytes() int {
	return int(unsafe.Sizeof(*p)) +
		4*(cap(p.groups.off)+cap(p.groups.mem)) +
		8*cap(p.gram) +
		int(unsafe.Sizeof(block{}))*cap(p.blocks)
}

// gramAt returns the Gram entry G[j][k]. The symmetric matrix is stored as
// its lower triangle, row after row: row j holds G[j][0..j] and starts at
// j(j+1)/2, so (j, k) and (k, j) read the same float.
func (p *Problem) gramAt(j, k int) float64 {
	if j < k {
		j, k = k, j
	}
	return p.gram[j*(j+1)/2+k]
}

// axpyGramCol adds alpha·G[:,k] to y, element by element in index order,
// exactly as linalg.AxpyKernel over a dense Gram column would: G[0..k][k]
// is packed row k, one contiguous run, and G[j][k] for j > k sits j
// entries after G[j−1][k].
func (p *Problem) axpyGramCol(alpha float64, k int, y []float64) {
	if alpha == 0 {
		return
	}
	at := k * (k + 1) / 2
	linalg.AxpyKernel(alpha, p.gram[at:at+k+1], y[:k+1])
	at += k
	for j := k + 1; j < len(y); j++ {
		at += j
		y[j] += alpha * p.gram[at]
	}
}

// Share returns a Problem backed by the same preprocessed state — the dedup
// grouping, design blocks, and Gram matrix — but with its own
// (lazily allocated) solver scratch. Preprocessing is the expensive step
// and none of the shared fields are ever written after NewBlockProblem, so
// Share is how concurrent or cached users reuse one preprocessing pass:
// hand every holder its own share and the solves cannot interfere.
func (p *Problem) Share() *Problem {
	q := *p
	q.scratch = nil
	return &q
}

// SolveContext runs the Integer-Regression pipeline on the preprocessed
// problem for the target y: the NOMP path over sparsity budgets 1..m,
// largest-remainder rounding of each iterate to every total T = 1..m, and
// exact scoring of every distinct candidate selection with eval (smaller
// is better). It returns the best selection, as ascending original column
// indices, with its objective, or (nil, +Inf) when no non-empty candidate
// exists.
//
// The selection slice passed to eval is scratch reused across candidates;
// eval must not retain it past the call. The returned best selection is
// freshly allocated and owned by the caller.
//
// The NOMP atom loop and the candidate-scoring loop check ctx at
// deterministic points, and a cancelled call returns ctx.Err() with a nil
// selection. Abandoning a call midway never corrupts the Problem's scratch
// — every buffer is reset at the start of the next solve — and an
// uncancelled call's answer does not depend on ctx.
func (p *Problem) SolveContext(ctx context.Context, y linalg.Vector, m int, eval func(selected []int) float64) ([]int, float64, error) {
	if p.cols == 0 || m <= 0 {
		return nil, math.Inf(1), nil
	}
	if err := ctx.Err(); err != nil {
		return nil, math.Inf(1), err
	}
	defer p.releaseScratch()
	nompSpan := obs.StartStage(obs.StageNOMP)
	path, err := p.nompPath(ctx, y, m)
	nompSpan.Stop()
	if err != nil {
		return nil, math.Inf(1), err
	}
	roundSpan := obs.StartStage(obs.StageRound)
	defer roundSpan.Stop()
	return p.scoreCandidates(ctx, path, m, eval)
}

// scoreCandidates is Algorithm 1, lines 8–9, over a NOMP path: round each
// iterate to candidate multiplicity vectors, and score the selection of
// every candidate not seen earlier in the solve. Candidates are compared
// as sparse ν, before expansion; an iterate equal to the one before it
// yields only seen candidates and is skipped.
func (p *Problem) scoreCandidates(ctx context.Context, path []linalg.Vector, m int, eval func(selected []int) float64) ([]int, float64, error) {
	sc := p.scratchState(1)
	sc.seen.reset()
	sc.counts = p.groups.appendCounts(sc.counts[:0])
	limit := min(m, len(p.groups.mem))
	var best []int
	bestObj := math.Inf(1)
	score := func(nu []mult, size int) {
		if !sc.seen.add(nu, size) {
			return
		}
		sel := appendExpandSparse(sc.selBuf[:0], nu, p.groups)
		sc.selBuf = sel
		if obj := eval(sel); obj < bestObj {
			bestObj = obj
			best = append(best[:0], sel...)
		}
	}
	for it, x := range path {
		if err := ctx.Err(); err != nil {
			return nil, math.Inf(1), err
		}
		if (it > 0 && sameBits(x, path[it-1])) || !sc.normalize(x) {
			continue
		}
		sc.rnd.load(sc.u, sc.counts)
		for total := 1; total <= limit; total++ {
			nu, ok := sc.rnd.apportion(total)
			switch {
			case !ok:
			case sc.rnd.dense:
				score(canonicalize(nu, p.groups))
			default:
				score(nu, total) // already canonical
			}
		}
	}
	return best, bestObj, nil
}

// normalize writes x/‖x‖₁ into sc.u, exactly as linalg.Vector.Normalized
// computes it, and reports whether any weight is left to apportion.
func (sc *solverScratch) normalize(x linalg.Vector) bool {
	sc.u = growVec(sc.u, len(x))
	n1 := x.Norm1()
	if n1 == 0 {
		return false
	}
	inv := 1 / n1
	for i, v := range x {
		sc.u[i] = inv * v
	}
	// A ‖x‖₁ that overflows to +Inf normalizes finite weights to zeros,
	// which leave nothing to apportion.
	return sc.u.Norm1() != 0
}

// sameBits reports bit-for-bit equality of two iterates.
func sameBits(a, b linalg.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// nompPath returns the non-negative OMP solution after each of the first
// maxAtoms greedy support extensions (path[ℓ-1] has at most ℓ atoms),
// realizing the "for ℓ = 1..m: x = NOMP(Ṽ, Υ)" loop of Algorithm 1 in one
// pass over the unique columns. It works in Gram space: correlations come
// from c = Aᵀy and the cached Gram matrix, and the NNLS subproblem is
// solved by a warm-started Lawson–Hanson iteration whose normal-equations
// factorization grows by rank-1 extension on atom add and shrinks by
// rotation on eviction. An atom whose Gram block with the passive set is
// numerically singular, so that the factorization refuses it, lies in the
// span of the passive atoms already fitted: it is dropped for the rest of
// the path and the step moves on to the next-best correlation. Each step
// either grows the path or bans one atom, so the loop ends.
//
// ctx is checked once per step, a deterministic checkpoint that never
// changes the results of uncancelled runs; a cancelled call returns
// ctx.Err(). All working state lives in the Problem's reusable scratch,
// and so does the path, valid until the scratch is released.
func (p *Problem) nompPath(ctx context.Context, y linalg.Vector, maxAtoms int) ([]linalg.Vector, error) {
	if maxAtoms > p.cols {
		maxAtoms = p.cols
	}
	if maxAtoms > p.rows {
		// The NNLS subproblem needs at least as many rows as support
		// columns; larger supports cannot improve an exact fit anyway.
		maxAtoms = p.rows
	}
	n := p.cols
	const tol = 1e-10
	sc := p.scratchState(maxAtoms)
	sc.resetSolver()
	// c = Aᵀy over the unique columns, via the design's non-zeros.
	for j := range sc.c {
		sc.c[j] = p.blocks.dot(p.groups.first(j), y)
	}

	s := &supportSolver{p: p, sc: sc}
	path := sc.path[:0]
	support := sc.support
	inSupport := sc.inSupport
	corr := sc.corr
	var nnlsTime time.Duration
	defer func() {
		if nnlsTime > 0 {
			obs.ObserveStage(obs.StageNNLS, nnlsTime)
		}
	}()
	for len(path) < maxAtoms {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Greedy atom: maximum positive correlation with the residual,
		// corrⱼ = cⱼ − Σ_{k passive} G_jk·x_k (no dense residual needed).
		// Column-at-a-time: corr starts as c and each passive atom's Gram
		// column is subtracted with one axpy, replacing the per-j gather
		// over the passive set. a + (−x)·g ≡ a − x·g in IEEE arithmetic and
		// the passive order is unchanged, so the result is bit-identical
		// to the row-wise loop.
		copy(corr, sc.c)
		for _, k := range sc.passive {
			p.axpyGramCol(-sc.x[k], k, corr)
		}
		best, bestC := -1, tol
		for j := 0; j < n; j++ {
			if !inSupport[j] && corr[j] > bestC {
				best, bestC = j, corr[j]
			}
		}
		if best < 0 {
			// No atom improves the fit; replicate the last solution for
			// the remaining budgets so callers still get maxAtoms entries.
			for len(path) < maxAtoms {
				path = append(path, sc.cloneIterate(sc.x))
			}
			break
		}
		support = append(support, best)
		inSupport[best] = true

		nnlsStart := time.Now()
		entered := s.refit(support)
		nnlsTime += time.Since(nnlsStart)
		if !entered {
			// Drop the refused atom. inSupport stays set, so it is never
			// picked again, and the step adds no path entry.
			support = support[:len(support)-1]
			continue
		}
		// Evict zeroed atoms from the support (they may be re-added by a
		// later greedy step, matching the dense reference's semantics).
		live := support[:0]
		for _, j := range support {
			if sc.x[j] > tol {
				live = append(live, j)
			} else {
				inSupport[j] = false
			}
		}
		support = live
		path = append(path, sc.cloneIterate(sc.x))
	}
	sc.support = support[:0]
	sc.path = path
	return path, nil
}

// resetSolver clears the NOMP working state for a fresh target; buffer
// capacities are kept.
func (s *solverScratch) resetSolver() {
	for i := range s.x {
		s.x[i] = 0
	}
	for i := range s.inSupport {
		s.inSupport[i] = false
	}
	s.support = s.support[:0]
	s.passive = s.passive[:0]
	s.pathSlab = s.pathSlab[:0]
	s.path = s.path[:0]
	s.chol.Reset()
}

// supportSolver maintains the state of the warm-started Lawson–Hanson NNLS
// over the current NOMP support: the passive set (atoms with strictly
// positive coefficients), the Cholesky factorization of its Gram block, and
// the solution vector over all unique columns. The state itself lives in
// the Problem's solverScratch.
type supportSolver struct {
	p  *Problem
	sc *solverScratch
}

// enter adds unique column j to the passive set, extending the
// factorization by one row. It reports false, changing nothing, when the
// factorization refuses j: j's Gram block with the passive set is
// numerically singular.
func (s *supportSolver) enter(j int) bool {
	sc := s.sc
	k := len(sc.passive)
	if cap(sc.ss) < k {
		sc.ss = linalg.NewVector(2*k + 4)
	}
	row := sc.ss[:k]
	for i, jj := range sc.passive {
		row[i] = s.p.gramAt(j, jj)
	}
	if err := sc.chol.Extend(row, s.p.gramAt(j, j)); err != nil {
		return false
	}
	sc.passive = append(sc.passive, j)
	return true
}

// leave drops the atom at passive position k, clamping its coefficient.
func (s *supportSolver) leave(k int) {
	sc := s.sc
	sc.x[sc.passive[k]] = 0
	sc.chol.Remove(k)
	sc.passive = append(sc.passive[:k], sc.passive[k+1:]...)
}

// refit re-optimizes the NNLS coefficients after the support gained the
// atoms in support that are not yet passive (in NOMP: exactly one new
// atom). It reports false, with the state unchanged, when the
// factorization refuses a new atom. Otherwise it runs Lawson–Hanson
// restricted to the support, warm-started from the current passive set,
// and ends with the current iterate when the KKT conditions hold, its
// iteration budget runs out, or the factorization refuses an atom the KKT
// check would re-admit.
func (s *supportSolver) refit(support []int) bool {
	const tol = 1e-10
	sc := s.sc
	inPassive := func(j int) bool {
		for _, k := range sc.passive {
			if k == j {
				return true
			}
		}
		return false
	}
	// Admit the new support atoms to the passive set.
	for _, j := range support {
		if !inPassive(j) {
			if !s.enter(j) {
				return false
			}
		}
	}
	maxIter := 3 * len(support)
	if maxIter < 30 {
		maxIter = 30
	}
	for outer := 0; outer < maxIter; outer++ {
		// Inner loop: unconstrained solve on the passive Gram block; step
		// back and shrink while any passive coefficient is non-positive.
		for inner := 0; inner < maxIter; inner++ {
			k := len(sc.passive)
			if k == 0 {
				break
			}
			if cap(sc.ss) < 2*k {
				sc.ss = linalg.NewVector(4*k + 4)
			}
			b := sc.ss[:k]
			z := sc.ss[k : 2*k]
			for i, j := range sc.passive {
				b[i] = sc.c[j]
			}
			sc.chol.Solve(b, z)
			if allPositiveSlice(z, tol) {
				for i, j := range sc.passive {
					sc.x[j] = z[i]
				}
				break
			}
			// Limiting step α along (z − x) over the passive set.
			alpha := math.Inf(1)
			for i, j := range sc.passive {
				if z[i] <= tol {
					den := sc.x[j] - z[i]
					if den > 0 {
						if r := sc.x[j] / den; r < alpha {
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
			for i, j := range sc.passive {
				sc.x[j] += alpha * (z[i] - sc.x[j])
			}
			// Clamp and evict atoms that hit the boundary (reverse order so
			// positions stay valid while removing).
			for i := len(sc.passive) - 1; i >= 0; i-- {
				if sc.x[sc.passive[i]] <= tol {
					s.leave(i)
				}
			}
		}
		// KKT over the support: wⱼ = cⱼ − Σ_k G_jk·x_k must be ≤ tol for
		// every support atom outside the passive set.
		best, bestW := -1, tol
		for _, j := range support {
			if inPassive(j) {
				continue
			}
			w := sc.c[j]
			for _, k := range sc.passive {
				w -= s.p.gramAt(j, k) * sc.x[k]
			}
			if w > bestW {
				best, bestW = j, w
			}
		}
		if best < 0 || !s.enter(best) {
			return true
		}
	}
	return true
}

func allPositiveSlice(v []float64, tol float64) bool {
	for _, x := range v {
		if x <= tol {
			return false
		}
	}
	return true
}
