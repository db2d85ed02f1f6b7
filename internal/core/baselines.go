package core

import (
	"context"
	"sort"

	"math"
	"math/rand"

	"comparesets/internal/linalg"
	"comparesets/internal/model"
	"comparesets/internal/regress"
)

// CRS is the single-item Characteristic Review Selection baseline of Lappas
// et al. (KDD 2012): the special case of CompaReSetS with one item and
// λ = 0 (§2.2), applied to every item of the instance independently. Each
// item's reviews are matched against its own opinion distribution τᵢ only —
// no cross-item coupling and no target-aspect term.
type CRS struct{}

// Name implements Selector.
func (CRS) Name() string { return "Crs" }

// Select implements Selector.
func (s CRS) Select(inst *model.Instance, cfg Config) (*Selection, error) {
	return s.SelectContext(context.Background(), inst, cfg)
}

// SelectContext implements Selector.
func (CRS) SelectContext(ctx context.Context, inst *model.Instance, cfg Config) (*Selection, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if inst.NumItems() == 0 {
		return nil, ErrEmptyInstance
	}
	crsCfg := cfg
	crsCfg.Lambda = 0
	crsCfg.Mu = 0
	// Targets do not depend on λ or μ: the CRS regressions and the
	// reported objective read the same ones.
	tg := NewTargets(inst, crsCfg)
	sel := &Selection{Indices: make([][]int, inst.NumItems()), Targets: tg}
	z := inst.Aspects.Len()
	sch := crsCfg.scheme()
	for i, it := range inst.Items {
		if len(it.Reviews) == 0 {
			continue
		}
		cols := make([]linalg.Vector, len(it.Reviews))
		for j, r := range it.Reviews {
			cols[j] = sch.Column(r, z)
		}
		w := linalg.MatrixFromColumns(cols)
		item := i
		eval := func(selected []int) float64 {
			set := gather(it.Reviews, selected)
			return linalg.SquaredDistance(tg.Tau[item], sch.Vector(set, z))
		}
		var err error
		sel.Indices[i], _, err = regress.SolveContext(ctx, w, tg.Tau[i], crsCfg.M, eval)
		if err != nil {
			return nil, err
		}
	}
	sel.Objective = ObjectiveCompareSets(inst, tg, cfg, sel.Reviews(inst))
	return sel, nil
}

// Greedy is the CompaReSetS_Greedy baseline (§4.1.2): select reviews
// one-by-one, each time adding the review that minimizes the per-item
// objective (Eq. 3) of the grown set, until m reviews are chosen or no
// addition improves the objective.
type Greedy struct{}

// Name implements Selector.
func (Greedy) Name() string { return "CompaReSetS_Greedy" }

// Select implements Selector.
func (s Greedy) Select(inst *model.Instance, cfg Config) (*Selection, error) {
	return s.SelectContext(context.Background(), inst, cfg)
}

// SelectContext implements Selector; ctx is checked before each item.
func (Greedy) SelectContext(ctx context.Context, inst *model.Instance, cfg Config) (*Selection, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if inst.NumItems() == 0 {
		return nil, ErrEmptyInstance
	}
	tg := NewTargets(inst, cfg)
	sel := &Selection{Indices: make([][]int, inst.NumItems()), Targets: tg}
	for i, it := range inst.Items {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sel.Indices[i] = greedyItem(inst, tg, cfg, i, it)
	}
	sel.Objective = ObjectiveCompareSets(inst, tg, cfg, sel.Reviews(inst))
	return sel, nil
}

func greedyItem(inst *model.Instance, tg *Targets, cfg Config, item int, it *model.Item) []int {
	n := len(it.Reviews)
	if n == 0 {
		return nil
	}
	chosen := make([]int, 0, cfg.M)
	inSet := make([]bool, n)
	cur := math.Inf(1)
	for len(chosen) < cfg.M {
		best, bestObj := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if inSet[j] {
				continue
			}
			cand := append(append([]int{}, chosen...), j)
			obj := ItemObjective(inst, tg, cfg, item, gather(it.Reviews, cand))
			if obj < bestObj {
				best, bestObj = j, obj
			}
		}
		if best < 0 || bestObj >= cur {
			break
		}
		chosen = append(chosen, best)
		inSet[best] = true
		cur = bestObj
	}
	sort.Ints(chosen)
	return chosen
}

// Random samples reviews uniformly without replacement until m reviews are
// selected per item (§4.1.2). The draw is deterministic for a fixed
// cfg.Seed.
type Random struct{}

// Name implements Selector.
func (Random) Name() string { return "Random" }

// Select implements Selector.
func (s Random) Select(inst *model.Instance, cfg Config) (*Selection, error) {
	return s.SelectContext(context.Background(), inst, cfg)
}

// SelectContext implements Selector; the draw is fast enough that only the
// entry checkpoint applies.
func (Random) SelectContext(ctx context.Context, inst *model.Instance, cfg Config) (*Selection, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if inst.NumItems() == 0 {
		return nil, ErrEmptyInstance
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tg := NewTargets(inst, cfg)
	sel := &Selection{Indices: make([][]int, inst.NumItems()), Targets: tg}
	for i, it := range inst.Items {
		sel.Indices[i] = randomSubset(rng, len(it.Reviews), cfg.M)
	}
	sel.Objective = ObjectiveCompareSets(inst, tg, cfg, sel.Reviews(inst))
	return sel, nil
}

// Selectors returns the five algorithms in the row order of Table 3.
func Selectors() []Selector {
	return []Selector{Random{}, CRS{}, Greedy{}, CompaReSetS{}, CompaReSetSPlus{}}
}

// SelectorByName returns the selector with the given Name.
func SelectorByName(name string) (Selector, bool) {
	for _, s := range Selectors() {
		if s.Name() == name {
			return s, true
		}
	}
	return nil, false
}
