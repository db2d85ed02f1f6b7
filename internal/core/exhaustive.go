package core

import (
	"math"
	"math/bits"

	"comparesets/internal/model"
)

// Exhaustive is an exact reference selector: per item it enumerates every
// review subset of size ≤ m and keeps the one minimizing the per-item
// objective (Eq. 3). CompaReSetS is NP-complete, so this is only feasible
// for small review sets — it exists to measure the optimality gap of the
// Integer-Regression heuristic (see the ablation tests and benchmarks) and
// refuses items with more than MaxExhaustiveReviews reviews.
type Exhaustive struct{}

// MaxExhaustiveReviews bounds |R_i| for the exhaustive selector; beyond
// this, enumeration is hopeless (C(24, 5) ≈ 42k subsets per item already).
const MaxExhaustiveReviews = 24

// Name implements Selector.
func (Exhaustive) Name() string { return "Exhaustive" }

// Select implements Selector. Note that the exhaustive optimum is per-item
// (Eq. 1 decomposes), so this is the true CompaReSetS optimum, not the
// CompaReSetS+ optimum.
func (Exhaustive) Select(inst *model.Instance, cfg Config) (*Selection, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if inst.NumItems() == 0 {
		return nil, ErrEmptyInstance
	}
	tg := NewTargets(inst, cfg)
	sel := &Selection{Indices: make([][]int, inst.NumItems()), Targets: tg}
	for i, it := range inst.Items {
		best, err := exhaustiveItem(inst, tg, cfg, i, it)
		if err != nil {
			return nil, err
		}
		sel.Indices[i] = best
	}
	sel.Objective = ObjectiveCompareSets(inst, tg, cfg, sel.Reviews(inst))
	return sel, nil
}

// ErrTooManyReviews is returned when an item exceeds MaxExhaustiveReviews.
var ErrTooManyReviews = errTooMany{}

type errTooMany struct{}

func (errTooMany) Error() string {
	return "core: item has too many reviews for exhaustive search"
}

func exhaustiveItem(inst *model.Instance, tg *Targets, cfg Config, item int, it *model.Item) ([]int, error) {
	n := len(it.Reviews)
	if n == 0 {
		return nil, nil
	}
	if n > MaxExhaustiveReviews {
		return nil, ErrTooManyReviews
	}
	var best []int
	bestObj := math.Inf(1)
	for mask := uint32(1); mask < 1<<n; mask++ {
		if bits.OnesCount32(mask) > cfg.M {
			continue
		}
		idx := maskIndices(mask)
		obj := ItemObjective(inst, tg, cfg, item, gather(it.Reviews, idx))
		if obj < bestObj {
			bestObj = obj
			best = idx
		}
	}
	return best, nil
}

func maskIndices(mask uint32) []int {
	idx := make([]int, 0, bits.OnesCount32(mask))
	for j := 0; mask != 0; j++ {
		if mask&1 == 1 {
			idx = append(idx, j)
		}
		mask >>= 1
	}
	return idx
}
