package core

import (
	"math"

	"comparesets/internal/linalg"
	"comparesets/internal/model"
	"comparesets/internal/obs"
	"comparesets/internal/opinion"
	"comparesets/internal/regress"
)

// featureCache precomputes every (instance, Config)-invariant artifact of
// the Integer-Regression hot path so that neither the per-item selection nor
// the CompaReSetS+ sweeps rebuild review features: each review's opinion and
// aspect columns (sparse runs, shared with the feature store when one
// serves the item), the per-item deduplicated design problems (whose
// grouping, sparsity, and Gram structure only depend on the reviews, λ, μ,
// and n — never on the sweep state), and the fixed parts of the regression
// targets.
//
// The CompaReSetS+ design is restructured on the way in: Algorithm 1's
// matrix V stacks n−1 identical μ-scaled copies of each review's aspect
// column (one block per other item). Since
//
//	Σ_b ‖μ·φ(S_b) − μ·φ‖² = (n−1)‖μ·φ − μ·Φ̄‖² + const,  Φ̄ = Σ_b φ(S_b)/(n−1),
//
// the n−1 blocks collapse into a single √(n−1)·μ-scaled aspect block
// against the mean of the other items' aspect vectors. The collapsed
// problem has identical NOMP correlations and NNLS minimizers (constants
// never enter either), identical dedup grouping, and dim+2z rows regardless
// of n — so a sweep step no longer scales with the item count. Neither
// design is assembled: a regress.Problem reads both as scaled blocks over
// the item's op and asp columns.
type featureCache struct {
	inst *model.Instance
	cfg  Config
	z    int
	sch  opinion.Scheme
	// counting is true for schemes whose π(S) is a normalized column sum,
	// enabling candidate evaluation straight from the cached columns.
	counting bool
	tg       *Targets
	// gammaL is λ·Γ, scaled once: it appears in every item's base target
	// and every sweep target.
	gammaL linalg.Vector
	items  []itemFeatures
}

// itemFeatures is the per-item slice of the cache.
type itemFeatures struct {
	// op column j holds the non-zeros of sch.Column(reviews[j], z); asp
	// column j those of the 0/1 aspect column of reviews[j].
	op, asp *linalg.SparseColumns
	// base is the CompaReSetS problem over columns [op; λ·asp], built on
	// first use; baseTarget is its fixed target [τᵢ; λ·Γ].
	base       *regress.Problem
	baseTarget linalg.Vector
	// plus is the collapsed CompaReSetS+ problem over columns
	// [op; λ·asp; √(n−1)·μ·asp], built on first use. Its target changes
	// every sweep; the problem itself never does. plusTargetBuf is the
	// reusable target vector those sweep steps assemble into (per-item, so
	// a parallel sweep could never share it).
	plus          *regress.Problem
	plusTargetBuf linalg.Vector
	// piBuf/phiBuf are the scratch vectors piPhi returns for counting
	// schemes; per-item so the parallel fan-out never shares them.
	piBuf, phiBuf linalg.Vector
}

func newFeatureCache(inst *model.Instance, cfg Config, tg *Targets) *featureCache {
	span := obs.StartStage(obs.StageFeatureBuild)
	defer span.Stop()
	fc := &featureCache{
		inst:  inst,
		cfg:   cfg,
		z:     inst.Aspects.Len(),
		sch:   cfg.scheme(),
		tg:    tg,
		items: make([]itemFeatures, inst.NumItems()),
	}
	fc.counting = opinion.IsCounting(fc.sch)
	fc.gammaL = tg.Gamma.Scale(cfg.Lambda)
	for i, it := range inst.Items {
		f := &fc.items[i]
		// The columns NewTargets got from the feature source are shared
		// and read-only: every downstream use scatters them into
		// request-private buffers or reads them as template blocks.
		if tg.feats != nil && tg.feats[i] != nil {
			f.op, f.asp = tg.feats[i].Op, tg.feats[i].Asp
			continue
		}
		f.op, f.asp = opinion.Columns(fc.sch, it.Reviews, fc.z)
	}
	return fc
}

// muWeight is the collapsed-block scale √(n−1)·μ.
func (fc *featureCache) muWeight() float64 {
	n := fc.inst.NumItems()
	if n <= 1 {
		return 0
	}
	return fc.cfg.Mu * math.Sqrt(float64(n-1))
}

// problemKey identifies item i's regression problem of the given kind for
// sharing through a ProblemCache. Instances alias corpus-resident item
// pointers (model.NewInstance), so the pointer is a stable item identity
// across requests over the same corpus.
func (fc *featureCache) problemKey(i int, kind problemKind) problemKey {
	var muW float64
	if kind == problemPlus {
		muW = fc.muWeight()
	}
	return problemKey{
		item:   fc.inst.Items[i],
		kind:   kind,
		scheme: fc.sch.Name(),
		z:      fc.z,
		lambda: fc.cfg.Lambda,
		muW:    muW,
	}
}

// baseProblem returns item i's CompaReSetS regression problem, building and
// memoizing it on first use — consulting the shared ProblemCache first when
// the config carries one. Not safe for concurrent calls on the same item;
// the parallel fan-out assigns each item to exactly one worker.
func (fc *featureCache) baseProblem(i int) *regress.Problem {
	f := &fc.items[i]
	if f.baseTarget == nil {
		f.baseTarget = linalg.Concat(fc.tg.Tau[i], fc.gammaL)
	}
	if f.base == nil {
		if pc := fc.cfg.Problems; pc != nil {
			f.base = pc.getOrBuild(fc.problemKey(i, problemBase), func() *regress.Problem {
				return fc.buildBaseProblem(i)
			})
		} else {
			f.base = fc.buildBaseProblem(i)
		}
	}
	return f.base
}

// buildBaseProblem builds item i's CompaReSetS template: op×1 over asp×λ.
func (fc *featureCache) buildBaseProblem(i int) *regress.Problem {
	f := &fc.items[i]
	return regress.NewBlockProblem(
		regress.Block{Cols: f.op, Scale: 1},
		regress.Block{Cols: f.asp, Scale: fc.cfg.Lambda},
	)
}

// plusProblem returns item i's collapsed CompaReSetS+ regression problem,
// building and memoizing it on first use (through the shared ProblemCache
// when present).
func (fc *featureCache) plusProblem(i int) *regress.Problem {
	f := &fc.items[i]
	if f.plus == nil {
		if pc := fc.cfg.Problems; pc != nil {
			f.plus = pc.getOrBuild(fc.problemKey(i, problemPlus), func() *regress.Problem {
				return fc.buildPlusProblem(i)
			})
		} else {
			f.plus = fc.buildPlusProblem(i)
		}
	}
	return f.plus
}

// buildPlusProblem builds item i's collapsed CompaReSetS+ template: op×1
// over asp×λ over asp×√(n−1)·μ.
func (fc *featureCache) buildPlusProblem(i int) *regress.Problem {
	f := &fc.items[i]
	return regress.NewBlockProblem(
		regress.Block{Cols: f.op, Scale: 1},
		regress.Block{Cols: f.asp, Scale: fc.cfg.Lambda},
		regress.Block{Cols: f.asp, Scale: fc.muWeight()},
	)
}

// plusTarget assembles item i's sweep target [τᵢ; λ·Γ; √(n−1)·μ·Φ̄] where
// othersSum is Σ_{b≠i} φ(S_b) over the other items' current selections.
// The returned vector is the item's reusable target buffer, valid until
// the next plusTarget call for the same item; the solver only reads it
// during the call it is passed to.
func (fc *featureCache) plusTarget(i int, othersSum linalg.Vector) linalg.Vector {
	f := &fc.items[i]
	tau := fc.tg.Tau[i]
	want := len(tau) + len(fc.gammaL) + fc.z
	if f.plusTargetBuf == nil {
		f.plusTargetBuf = linalg.NewVector(want)
	}
	y := f.plusTargetBuf
	copy(y, tau)
	copy(y[len(tau):], fc.gammaL)
	scaled := y[len(tau)+len(fc.gammaL):]
	n := fc.inst.NumItems()
	if n > 1 {
		w := fc.muWeight() / float64(n-1)
		for k, v := range othersSum {
			scaled[k] = w * v
		}
	} else {
		for k := range scaled {
			scaled[k] = 0
		}
	}
	return y
}

// phi computes φ(S) for item i's candidate selection from the cached aspect
// columns: per-aspect review counts normalized by the maximum count.
// Identical to opinion.AspectVector on the gathered reviews.
func (fc *featureCache) phi(i int, selected []int) linalg.Vector {
	sum := linalg.NewVector(fc.z)
	f := &fc.items[i]
	for _, j := range selected {
		idx, val := f.asp.Col(j)
		linalg.ScatterAddKernel(idx, val, sum)
	}
	if m := sum.Max(); m > 0 {
		sum.ScaleInPlace(1 / m)
	}
	return sum
}

// piPhi computes (π(S), φ(S)) for item i's candidate selection. For
// counting schemes both come from one pass over the cached columns; other
// schemes fall back to the reviews themselves. The returned vectors are
// per-item scratch, valid only until the next piPhi call for the same item
// — callers must not retain them.
func (fc *featureCache) piPhi(i int, selected []int) (pi, phi linalg.Vector) {
	if !fc.counting {
		set := gather(fc.inst.Items[i].Reviews, selected)
		return fc.sch.Vector(set, fc.z), opinion.AspectVector(set, fc.z)
	}
	f := &fc.items[i]
	if f.piBuf == nil {
		f.piBuf = linalg.NewVector(fc.sch.Dim(fc.z))
		f.phiBuf = linalg.NewVector(fc.z)
	}
	pi, phi = f.piBuf, f.phiBuf
	for k := range pi {
		pi[k] = 0
	}
	for k := range phi {
		phi[k] = 0
	}
	// Scattering each review's ~5 non-zeros adds exactly what adding its
	// dense columns did: the skipped entries are zeros, and adding a zero
	// to an accumulator that starts at +0 changes nothing.
	for _, j := range selected {
		idx, val := f.op.Col(j)
		linalg.ScatterAddKernel(idx, val, pi)
		idx, val = f.asp.Col(j)
		linalg.ScatterAddKernel(idx, val, phi)
	}
	// The shared normalization denominator of Working Example 1: the
	// maximum per-aspect review count within the set.
	if m := phi.Max(); m > 0 {
		pi.ScaleInPlace(1 / m)
		phi.ScaleInPlace(1 / m)
	}
	return pi, phi
}

// itemObjective evaluates Eq. 3 for item i's candidate selection using the
// cached columns: Δ(τᵢ, π(S)) + λ²·Δ(Γ, φ(S)).
func (fc *featureCache) itemObjective(i int, selected []int) float64 {
	pi, phi := fc.piPhi(i, selected)
	return linalg.SquaredDistance(fc.tg.Tau[i], pi) +
		fc.cfg.Lambda*fc.cfg.Lambda*linalg.SquaredDistance(fc.tg.Gamma, phi)
}
