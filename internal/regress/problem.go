package regress

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"comparesets/internal/linalg"
	"comparesets/internal/obs"
)

// errGramFallback signals that the incremental Gram-space solver hit a
// numerical failure and the dense reference path must be used instead. It
// never escapes the package.
var errGramFallback = errors.New("regress: gram solver fallback")

// Problem is a preprocessed Integer-Regression instance: the dedup grouping
// of the design matrix together with every target-independent structure
// the solver reads — the unique columns' sparse forms for correlation, and
// their Gram matrix that powers the incremental NNLS. Build one per design
// matrix and reuse it across targets: CompaReSetS+ re-solves the same
// per-item design against a fresh target on every sweep, and the dedup
// grouping, sparsity pattern, and Gram matrix are all invariant across
// those sweeps. No dense copy of the deduplicated design is kept: the
// rare numerical fallback rebuilds it from the sparse forms.
//
// Cached problems live for the life of a corpus, so the layout is compact:
// the grouping and the sparse forms are flat int32 offset arrays over flat
// slabs, and the symmetric Gram matrix keeps only its lower triangle. A
// problem is five allocations, whatever its size.
//
// A Problem additionally owns reusable solver scratch, so it is NOT safe
// for concurrent use; give each goroutine its own Problem (the per-item
// fan-out in internal/core assigns every item's Problem to one worker).
type Problem struct {
	rows, cols int           // shape of the deduplicated design
	groups     groups        // the Dedup grouping of the design's columns
	sparse     sparseColumns // the unique columns' non-zeros
	gram       []float64     // the unique columns' Gram matrix, packed (see gramAt)
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
// on first use and reused across Solve calls on the same Problem.
type solverScratch struct {
	c         linalg.Vector // Aᵀy over unique columns
	corr      linalg.Vector // residual correlations
	x         linalg.Vector // current NOMP iterate
	inSupport []bool
	support   []int
	passive   []int // NNLS passive set, in factorization order
	chol      *linalg.UpdatableCholesky
	ss        linalg.Vector // supportSolver row/solve workspace

	// Candidate loop: the normalized iterate and its rounder (default
	// Rounding), the sparse form of a custom Rounding's candidate, the
	// candidates scored this solve, and the expanded selection.
	u      linalg.Vector
	counts []int // the groups' multiplicities, the rounding caps
	rnd    rounder
	nuBuf  []mult
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

// NewProblem preprocesses the design matrix a: group identical columns,
// extract the sparse forms of the unique columns, and compute their Gram
// matrix. Each group's values are read from its first column of a, so
// building a Problem materializes no deduplicated copy of a.
func NewProblem(a *linalg.Matrix) *Problem {
	g := groupColumns(a)
	n := g.len()
	p := &Problem{
		rows:   a.Rows,
		cols:   n,
		groups: g,
		sparse: newSparseColumns(n, func(k int) linalg.Vector { return a.Col(g.first(k)) }),
		gram:   make([]float64, n*(n+1)/2),
	}
	for j := 0; j < n; j++ {
		idx, val := p.sparse.col(j)
		row := p.gram[j*(j+1)/2:][:j+1]
		for k := range row {
			row[k] = linalg.GatherDotKernel(idx, val, a.Col(g.first(k)))
		}
	}
	return p
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
// grouping, sparse column forms, and Gram matrix — but with its own
// (lazily allocated) solver scratch. Preprocessing is the expensive step
// and none of the shared fields are ever written after NewProblem, so
// Share is how concurrent or cached users reuse one preprocessing pass:
// hand every holder its own share and the solves cannot interfere.
func (p *Problem) Share() *Problem {
	q := *p
	q.scratch = nil
	return &q
}

// Solve runs the Integer-Regression pipeline on the preprocessed problem for
// the given target: NOMP path over sparsity budgets 1..m, rounding of each
// iterate, and exact scoring of every candidate with eval. It is
// SolveWithRounding minus the per-call preprocessing.
//
// The selection slice passed to eval is scratch reused across candidates;
// eval must not retain it past the call. The returned best selection is
// freshly allocated and owned by the caller.
//
// A nil round selects the default RoundCandidates strategy running on
// problem-owned scratch — identical candidates, no per-iterate
// allocations. Pass an explicit Rounding only to ablate the strategy.
func (p *Problem) Solve(y linalg.Vector, m int, round Rounding, eval func(selected []int) float64) ([]int, float64) {
	sel, obj, _ := p.SolveContext(context.Background(), y, m, round, eval)
	return sel, obj
}

// SolveContext is Solve with cooperative cancellation: the NOMP atom loop
// and the candidate-scoring loop check ctx at deterministic points, and a
// cancelled call returns ctx.Err() with a nil selection. Abandoning a call
// midway never corrupts the Problem's scratch — every buffer is reset at
// the start of the next solve — and an uncancelled call returns exactly
// what Solve returns.
func (p *Problem) SolveContext(ctx context.Context, y linalg.Vector, m int, round Rounding, eval func(selected []int) float64) ([]int, float64, error) {
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
	return p.scoreCandidates(ctx, path, m, round, eval)
}

// scoreCandidates is Algorithm 1, lines 8–9, over a NOMP path: round each
// iterate to candidate multiplicity vectors, and score the selection of
// every candidate not seen earlier in the solve. Candidates are compared
// as sparse ν, before expansion; an iterate equal to the one before it
// yields only seen candidates and is skipped.
func (p *Problem) scoreCandidates(ctx context.Context, path []linalg.Vector, m int, round Rounding, eval func(selected []int) float64) ([]int, float64, error) {
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
		if round != nil {
			for _, dense := range round(x, sc.counts, m) {
				nu := sc.nuBuf[:0]
				for i, k := range dense {
					if k != 0 {
						nu = append(nu, mult{i, k})
					}
				}
				sc.nuBuf = nu
				score(canonicalize(nu, p.groups))
			}
			continue
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

// normalize writes x/‖x‖₁ into sc.u, exactly as RoundCandidates
// normalizes, and reports whether any weight is left to apportion.
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
	// A ‖x‖₁ that overflows to +Inf normalizes finite weights to zeros;
	// RoundCandidates gives up on them the same way.
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

// NOMPPath is the incremental counterpart of the package-level NOMPPath: it
// returns the non-negative OMP solution after each of the first maxAtoms
// greedy support extensions. Instead of gathering the support columns and
// re-solving a dense least-squares problem from scratch on every atom
// addition (O(rows·|support|²) per atom), it works entirely in Gram space:
// correlations come from c = Aᵀy and the cached Gram matrix, and the NNLS
// subproblem is solved by a warm-started Lawson–Hanson iteration whose
// normal-equations factorization grows by rank-1 extension on atom add and
// shrinks by rotation on eviction. On any numerical failure it falls back
// to the dense reference path for the whole call.
func (p *Problem) NOMPPath(y linalg.Vector, maxAtoms int) []linalg.Vector {
	path, _ := p.nompPath(context.Background(), y, maxAtoms)
	// The Gram path lives in solver scratch (reused by the next solve on
	// this problem); hand callers their own copies.
	out := make([]linalg.Vector, len(path))
	for i, v := range path {
		out[i] = v.Clone()
	}
	return out
}

// nompPath clamps the atom budget, runs the Gram-space solver, and falls
// back to the dense reference path on numerical failure. Cancellation
// propagates from either path as ctx.Err().
func (p *Problem) nompPath(ctx context.Context, y linalg.Vector, maxAtoms int) ([]linalg.Vector, error) {
	if maxAtoms > p.cols {
		maxAtoms = p.cols
	}
	if maxAtoms > p.rows {
		// The NNLS subproblem needs at least as many rows as support
		// columns; larger supports cannot improve an exact fit anyway.
		maxAtoms = p.rows
	}
	path, err := p.nompGram(ctx, y, maxAtoms)
	if errors.Is(err, errGramFallback) {
		return nompPathDense(ctx, p.denseUnique(), y, maxAtoms)
	}
	return path, err
}

// denseUnique rebuilds Dedup's unique matrix from the sparse forms. Only
// the dense fallback reads it, so it is built per fallback call rather than
// kept in every template.
func (p *Problem) denseUnique() *linalg.Matrix {
	u := linalg.NewMatrix(p.rows, p.cols)
	for j := 0; j < p.cols; j++ {
		col := u.Col(j)
		idx, val := p.sparse.col(j)
		for t, i := range idx {
			col[i] = val[t]
		}
	}
	return u
}

// nompGram runs the Gram-space NOMP loop. It returns errGramFallback when
// the incremental factorization hits a numerical failure, in which case the
// caller re-runs the dense reference implementation, and ctx.Err() when the
// call is cancelled (checked once per atom extension — a deterministic
// checkpoint that never changes results of uncancelled runs). All working
// state lives in the Problem's reusable scratch; only the returned path
// vectors are allocated per call.
func (p *Problem) nompGram(ctx context.Context, y linalg.Vector, maxAtoms int) ([]linalg.Vector, error) {
	n := p.cols
	const tol = 1e-10
	sc := p.scratchState(maxAtoms)
	sc.resetSolver()
	// c = Aᵀy over the unique columns, via the sparse forms.
	p.sparse.correlations(y, sc.c)

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
		ok := s.refit(support)
		nnlsTime += time.Since(nnlsStart)
		if !ok {
			return nil, errGramFallback
		}
		// Evict zeroed atoms from the support (they may be re-added by a
		// later greedy step, matching the dense path's semantics).
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
// factorization by one row. It reports false on numerical failure.
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
// atom). It runs Lawson–Hanson restricted to the support, warm-started from
// the current passive set, and reports false on numerical failure.
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
		if best < 0 {
			return true
		}
		if !s.enter(best) {
			return false
		}
	}
	// Iteration budget exhausted: keep the best iterate, mirroring the
	// dense solver's ErrNNLSNoConvergence behavior.
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
