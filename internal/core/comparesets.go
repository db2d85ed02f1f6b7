package core

import (
	"context"
	"sync"
	"sync/atomic"

	"comparesets/internal/faultinject"
	"comparesets/internal/linalg"
	"comparesets/internal/model"
	"comparesets/internal/obs"
)

// CompaReSetS solves Problem 1 by Integer-Regression, independently per item
// (Eq. 1 decomposes over items, Eq. 3/4): for item pᵢ the design matrix W
// stacks the opinion rows (entry 1 iff opinion o appears in review r) over
// λ-scaled aspect rows (entry λ iff aspect a appears in r), and the target
// is [τᵢ; λ·Γ].
type CompaReSetS struct{}

// Name implements Selector.
func (CompaReSetS) Name() string { return "CompaReSetS" }

// Select implements Selector.
func (s CompaReSetS) Select(inst *model.Instance, cfg Config) (*Selection, error) {
	return s.SelectContext(context.Background(), inst, cfg)
}

// SelectContext implements Selector. Because Eq. 1 decomposes over items,
// the per-item regressions run on a bounded worker pool (cfg.Workers);
// results are byte-identical to a sequential run since every item's
// subproblem is independent and deterministic.
func (CompaReSetS) SelectContext(ctx context.Context, inst *model.Instance, cfg Config) (*Selection, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if inst.NumItems() == 0 {
		return nil, ErrEmptyInstance
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := faultinject.CheckCtx(ctx, faultinject.PointCoreSelect); err != nil {
		return nil, err
	}
	tg := NewTargets(inst, cfg)
	fc := newFeatureCache(inst, cfg, tg)
	indices, err := selectItems(ctx, fc)
	if err != nil {
		return nil, err
	}
	sel := &Selection{Indices: indices, Targets: tg}
	sel.Objective = ObjectiveCompareSets(inst, tg, cfg, sel.Reviews(inst))
	return sel, nil
}

// selectItems fans the independent per-item regressions across cfg.Workers
// goroutines (the SelectAll idiom one level down). out[i] depends only on
// item i, so scheduling cannot change results. Every worker checks ctx
// before starting an item; the first error (including ctx.Err()) wins and
// the remaining items are skipped.
func selectItems(ctx context.Context, fc *featureCache) ([][]int, error) {
	n := fc.inst.NumItems()
	out := make([][]int, n)
	workers := fc.cfg.workerCount()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			sel, err := selectForItem(ctx, fc, i)
			if err != nil {
				return nil, err
			}
			out[i] = sel
		}
		return out, nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		failed   atomic.Bool
	)
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if failed.Load() {
					continue // drain remaining jobs without working
				}
				sel, err := selectForItem(ctx, fc, i)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					failed.Store(true)
					continue
				}
				out[i] = sel
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// selectForItem runs Integer-Regression for a single item against the
// CompaReSetS target [τᵢ; λΓ], using the item's cached problem.
func selectForItem(ctx context.Context, fc *featureCache, item int) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(fc.inst.Items[item].Reviews) == 0 {
		return nil, nil
	}
	p := fc.baseProblem(item)
	eval := func(selected []int) float64 {
		return fc.itemObjective(item, selected)
	}
	sel, _, err := p.SolveContext(ctx, fc.items[item].baseTarget, fc.cfg.M, eval)
	return sel, err
}

// CompaReSetSPlus solves Problem 2 with Algorithm 1: initialize with
// CompaReSetS, then sweep the items, re-running Integer-Regression for item
// pᵢ against the extended target Υ = [τᵢ; λΓ; μφ(S₁); …; μφ(Sᵢ₋₁);
// μφ(Sᵢ₊₁); …; μφ(S_n)] with the other items' selections held fixed. The
// implementation collapses the n−1 identical μ-blocks of Υ's design into a
// single √(n−1)·μ block (see featureCache), so each sweep step reuses the
// item's cached problem and only rebuilds the dim+2z-row target.
type CompaReSetSPlus struct{}

// Name implements Selector.
func (CompaReSetSPlus) Name() string { return "CompaReSetS+" }

// Select implements Selector.
func (s CompaReSetSPlus) Select(inst *model.Instance, cfg Config) (*Selection, error) {
	return s.SelectContext(context.Background(), inst, cfg)
}

// SelectContext implements Selector.
func (CompaReSetSPlus) SelectContext(ctx context.Context, inst *model.Instance, cfg Config) (*Selection, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if inst.NumItems() == 0 {
		return nil, ErrEmptyInstance
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := faultinject.CheckCtx(ctx, faultinject.PointCoreSelect); err != nil {
		return nil, err
	}
	tg := NewTargets(inst, cfg)
	fc := newFeatureCache(inst, cfg, tg)
	indices, err := selectItems(ctx, fc)
	if err != nil {
		return nil, err
	}
	// φ(Sᵢ) of every item's current selection, maintained incrementally:
	// each sweep step changes exactly one item's set.
	phis := make([]linalg.Vector, len(indices))
	for i := range phis {
		phis[i] = fc.phi(i, indices[i])
	}
	passes := cfg.Passes
	if passes <= 0 {
		passes = 1
	}
	for pass := 0; pass < passes; pass++ {
		sweepSpan := obs.StartStage(obs.StageSweep)
		for i := range inst.Items {
			idx, err := resyncItem(ctx, fc, i, indices, phis)
			if err != nil {
				return nil, err
			}
			indices[i] = idx
			phis[i] = fc.phi(i, indices[i])
		}
		sweepSpan.Stop()
	}
	sel := &Selection{Indices: indices, Targets: tg}
	sel.Objective = ObjectivePlus(inst, tg, cfg, sel.Reviews(inst))
	return sel, nil
}

// resyncItem re-selects item i's reviews against the synchronized target of
// Algorithm 1, keeping the incumbent when no candidate improves the exact
// conditional objective. phis holds φ(S_b) for every item's current
// selection.
func resyncItem(ctx context.Context, fc *featureCache, item int, indices [][]int, phis []linalg.Vector) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(fc.inst.Items[item].Reviews) == 0 {
		return nil, nil
	}
	n := fc.inst.NumItems()
	// Aggregates of the other items' aspect vectors: Σ_b φ_b feeds the
	// collapsed regression target, and together with Σ_b ‖φ_b‖² it turns
	// the exact conditional objective's pairwise term into O(z):
	// Σ_b ‖φ − φ_b‖² = (n−1)‖φ‖² − 2·φ·Σ_b φ_b + Σ_b ‖φ_b‖².
	othersSum := linalg.NewVector(fc.z)
	var othersSq float64
	for b := 0; b < n; b++ {
		if b == item {
			continue
		}
		othersSum.AddInPlace(phis[b])
		othersSq += phis[b].Dot(phis[b])
	}
	l2 := fc.cfg.Lambda * fc.cfg.Lambda
	mu2 := fc.cfg.Mu * fc.cfg.Mu
	eval := func(selected []int) float64 {
		pi, phi := fc.piPhi(item, selected)
		obj := linalg.SquaredDistance(fc.tg.Tau[item], pi) +
			l2*linalg.SquaredDistance(fc.tg.Gamma, phi)
		cross := float64(n-1)*phi.Dot(phi) - 2*phi.Dot(othersSum) + othersSq
		if cross < 0 {
			cross = 0 // guard the expansion against rounding
		}
		return obj + mu2*cross
	}

	p := fc.plusProblem(item)
	y := fc.plusTarget(item, othersSum)
	sel, obj, err := p.SolveContext(ctx, y, fc.cfg.M, eval)
	if err != nil {
		return nil, err
	}
	// Keep the incumbent if strictly better (Algorithm 1 tracks min_Δ; we
	// seed it with the current selection so a sweep never regresses).
	if cur := indices[item]; len(cur) > 0 {
		if eval(cur) <= obj {
			return cur, nil
		}
	}
	return sel, nil
}

func gather(reviews []*model.Review, idx []int) []*model.Review {
	out := make([]*model.Review, 0, len(idx))
	for _, j := range idx {
		out = append(out, reviews[j])
	}
	return out
}
