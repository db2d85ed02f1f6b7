package core

import (
	"context"
	"sort"

	"comparesets/internal/model"
)

// Comprehensive is the comprehensive review selection baseline in the
// spirit of Lappas & Gunopulos (ECML PKDD 2010, §5.1): greedily pick
// reviews that cover the largest number of still-uncovered aspects of the
// item, until every discussed aspect is covered or the budget m is spent.
// It optimizes coverage, not distribution matching — the contrast the
// paper's related work draws with characteristic selection.
type Comprehensive struct{}

// Name implements Selector.
func (Comprehensive) Name() string { return "Comprehensive" }

// Select implements Selector.
func (s Comprehensive) Select(inst *model.Instance, cfg Config) (*Selection, error) {
	return s.SelectContext(context.Background(), inst, cfg)
}

// SelectContext implements Selector; ctx is checked before each item.
func (Comprehensive) SelectContext(ctx context.Context, inst *model.Instance, cfg Config) (*Selection, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if inst.NumItems() == 0 {
		return nil, ErrEmptyInstance
	}
	sel := &Selection{Indices: make([][]int, inst.NumItems())}
	for i, it := range inst.Items {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sel.Indices[i] = coverGreedy(it.Reviews, cfg.M, func(r *model.Review) []int {
			return r.AspectSet()
		})
	}
	tg := NewTargets(inst, cfg)
	sel.Targets = tg
	sel.Objective = ObjectiveCompareSets(inst, tg, cfg, sel.Reviews(inst))
	return sel, nil
}

// CoverageOpinions is the opinion-coverage baseline in the spirit of
// Tsaparas, Ntoulas & Terzi (KDD 2011, §5.1): cover each (aspect, polarity)
// pair at least once, so both the positive and the negative viewpoint of
// every discussed aspect appears in the selected set.
type CoverageOpinions struct{}

// Name implements Selector.
func (CoverageOpinions) Name() string { return "CoverageOpinions" }

// Select implements Selector.
func (s CoverageOpinions) Select(inst *model.Instance, cfg Config) (*Selection, error) {
	return s.SelectContext(context.Background(), inst, cfg)
}

// SelectContext implements Selector; ctx is checked before each item.
func (CoverageOpinions) SelectContext(ctx context.Context, inst *model.Instance, cfg Config) (*Selection, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if inst.NumItems() == 0 {
		return nil, ErrEmptyInstance
	}
	z := inst.Aspects.Len()
	sel := &Selection{Indices: make([][]int, inst.NumItems())}
	for i, it := range inst.Items {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sel.Indices[i] = coverGreedy(it.Reviews, cfg.M, func(r *model.Review) []int {
			// Elements are (aspect, polarity) pairs encoded as integers.
			seen := map[int]bool{}
			var out []int
			for _, m := range r.Mentions {
				var el int
				switch m.Polarity {
				case model.Positive:
					el = m.Aspect
				case model.Negative:
					el = z + m.Aspect
				default:
					el = 2*z + m.Aspect
				}
				if !seen[el] {
					seen[el] = true
					out = append(out, el)
				}
			}
			return out
		})
	}
	tg := NewTargets(inst, cfg)
	sel.Targets = tg
	sel.Objective = ObjectiveCompareSets(inst, tg, cfg, sel.Reviews(inst))
	return sel, nil
}

// coverGreedy runs the classic greedy set-cover heuristic: repeatedly take
// the review covering the most uncovered elements; stop when m reviews are
// chosen or no review adds coverage. Ties break toward the earlier review
// for determinism.
func coverGreedy(reviews []*model.Review, m int, elements func(*model.Review) []int) []int {
	covered := map[int]bool{}
	used := make([]bool, len(reviews))
	var chosen []int
	for len(chosen) < m {
		best, bestGain := -1, 0
		for j, r := range reviews {
			if used[j] {
				continue
			}
			gain := 0
			for _, el := range elements(r) {
				if !covered[el] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = j, gain
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		chosen = append(chosen, best)
		for _, el := range elements(reviews[best]) {
			covered[el] = true
		}
	}
	sort.Ints(chosen)
	return chosen
}

// ExtendedSelectors returns the Table 3 algorithms plus the coverage-style
// related-work baselines (§5.1) and the exhaustive reference — everything
// implementing Selector in this package.
func ExtendedSelectors() []Selector {
	return append(Selectors(), Comprehensive{}, CoverageOpinions{})
}

// CoverageOf reports the fraction of an item's discussed aspects that a
// selected set covers — the metric the comprehensive baseline maximizes.
func CoverageOf(item *model.Item, selected []int, z int) float64 {
	all := map[int]bool{}
	for _, r := range item.Reviews {
		for _, a := range r.AspectSet() {
			all[a] = true
		}
	}
	if len(all) == 0 {
		return 1
	}
	got := map[int]bool{}
	for _, j := range selected {
		for _, a := range item.Reviews[j].AspectSet() {
			got[a] = true
		}
	}
	covered := 0
	for a := range all {
		if got[a] {
			covered++
		}
	}
	return float64(covered) / float64(len(all))
}
