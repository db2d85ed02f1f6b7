// Package core implements the paper's primary contribution: the
// CompaReSetS (Problem 1) and CompaReSetS+ (Problem 2) comparative
// review-set selection algorithms, plus the baselines the evaluation
// compares against — single-item CRS (Lappas et al. 2012),
// CompaReSetS-Greedy, and Random.
//
// Items[0] of an instance is the target item p₁; Γ is its full-set aspect
// distribution φ(R₁) and τᵢ is each item's full-set opinion distribution
// π(Rᵢ) (§4.1.4).
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"

	"comparesets/internal/linalg"
	"comparesets/internal/model"
	"comparesets/internal/opinion"
)

// Config carries the selection hyperparameters.
type Config struct {
	// M is the maximum number of reviews selected per item (m).
	M int
	// Lambda trades opinion-distance against aspect-distance (λ ≥ 0).
	Lambda float64
	// Mu weights the pairwise among-item aspect distances in
	// CompaReSetS+ (μ ≥ 0).
	Mu float64
	// Scheme is the opinion definition; nil means Binary (the default).
	Scheme opinion.Scheme
	// Passes is the number of alternating sweeps of Algorithm 1 performed
	// by CompaReSetS+; 0 means 1 (the paper's single sweep).
	Passes int
	// Seed drives the Random baseline.
	Seed int64
	// Workers bounds the intra-instance parallelism of the per-item
	// regressions (Eq. 1 decomposes over items): ≤ 0 uses GOMAXPROCS, 1
	// forces a sequential run. Parallel and sequential runs return
	// identical selections.
	Workers int
	// Features optionally supplies precomputed per-item features — review
	// columns and targets (internal/featstore); nil recomputes them per
	// instance. Selections are identical either way — the source only skips
	// the per-request feature computation.
	Features FeatureSource
	// Problems optionally shares preprocessed per-item regression problems
	// across selections over the same corpus: the serving layer keeps one
	// cache per corpus generation, so later requests over the same items
	// skip the per-item design assembly, dedup, and Gram products
	// entirely. The cache hands every caller a private share of an
	// immutable template (regress.Problem.Share), so any number of
	// selections may use one cache concurrently. Selections are identical
	// with or without it.
	Problems *ProblemCache
}

// FeatureSource supplies an item's precomputed features under a scheme
// (see opinion.Features): Op column j must equal sch.Column(it.Reviews[j],
// z) and Asp column j opinion.AspectColumn(it.Reviews[j], z), non-zeros
// only; Tau must equal sch.Vector(it.Reviews, z) and Phi
// opinion.AspectVector(it.Reviews, z). None of it depends on the request,
// so a corpus-resident source computes it once, and a selection looks each
// item up once: NewTargets asks the source, hands the columns on to the
// feature cache through Targets, and the Selection carries those Targets
// to its consumers. Features are float64 sparse runs, the one
// representation every consumer reads. Implementations return ok=false
// when they cannot serve the item (e.g. it belongs to another corpus), in
// which case the caller computes the features itself. The returned
// features are shared across requests and cached regression templates and
// must never be mutated.
type FeatureSource interface {
	ItemFeatures(it *model.Item, sch opinion.Scheme, z int) (*opinion.Features, bool)
}

func (c Config) workerCount() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

func (c Config) scheme() opinion.Scheme {
	if c.Scheme == nil {
		return opinion.Binary{}
	}
	return c.Scheme
}

func (c Config) validate() error {
	if c.M <= 0 {
		return fmt.Errorf("core: M must be positive, got %d", c.M)
	}
	if c.Lambda < 0 || c.Mu < 0 {
		return fmt.Errorf("core: lambda/mu must be non-negative (λ=%v, μ=%v)", c.Lambda, c.Mu)
	}
	return nil
}

// ErrEmptyInstance is returned when an instance has no items.
var ErrEmptyInstance = errors.New("core: empty instance")

// Selection is the result of running a selector on an instance: per item,
// the chosen review indices (into Item.Reviews) and the achieved objective
// value under the selector's own formulation.
type Selection struct {
	// Indices[i] lists the selected review positions of instance item i,
	// ascending.
	Indices [][]int
	// Objective is the value of the optimized objective (Eq. 1 for
	// CompaReSetS, Eq. 5 for CompaReSetS+) on the returned sets.
	Objective float64
	// Targets are the instance's targets the selector scored against
	// (NewTargets under the selection's Config). Consumers that need them
	// again, such as the similarity graph's StatsForSets pass, read them
	// here instead of looking every item up a second time.
	Targets *Targets
}

// Reviews materializes the selected review sets S₁..S_n.
func (s *Selection) Reviews(inst *model.Instance) [][]*model.Review {
	out := make([][]*model.Review, len(s.Indices))
	for i, idx := range s.Indices {
		rs := make([]*model.Review, 0, len(idx))
		for _, j := range idx {
			rs = append(rs, inst.Items[i].Reviews[j])
		}
		out[i] = rs
	}
	return out
}

// Selector is a review-set selection algorithm.
type Selector interface {
	// Name identifies the algorithm in experiment tables.
	Name() string
	// Select chooses ≤ cfg.M reviews for every item of the instance. It is
	// SelectContext with context.Background().
	Select(inst *model.Instance, cfg Config) (*Selection, error)
	// SelectContext is Select with cooperative cancellation: the pipeline
	// checks ctx at deterministic checkpoints (before each per-item
	// regression, each NOMP atom extension, and each Algorithm 1 resync
	// step) and returns ctx.Err() once the context is done. Cancellation
	// never corrupts shared state, and uncancelled runs return results
	// byte-identical to Select.
	SelectContext(ctx context.Context, inst *model.Instance, cfg Config) (*Selection, error)
}

// Targets precomputes the optimization targets of an instance: Γ = φ(R₁)
// and τᵢ = π(Rᵢ).
type Targets struct {
	Gamma linalg.Vector   // target aspect vector Γ
	Tau   []linalg.Vector // per-item target opinion vectors τᵢ
	// feats[i] is item i's features as Config.Features served them, nil
	// where it declined or when there is no source; the feature cache reads
	// the review columns from here instead of looking the item up again.
	feats []*opinion.Features
}

// NewTargets computes the targets for the instance under the configured
// opinion scheme. When cfg.Features serves an item, its vectors come from
// the corpus-resident features (they depend only on the item, never on
// the instance); the vectors are then shared and must be treated as
// read-only, which every consumer in this package honors.
func NewTargets(inst *model.Instance, cfg Config) *Targets {
	z := inst.Aspects.Len()
	sch := cfg.scheme()
	t := &Targets{Tau: make([]linalg.Vector, inst.NumItems())}
	if cfg.Features != nil {
		t.feats = make([]*opinion.Features, inst.NumItems())
	}
	for i, it := range inst.Items {
		var phi linalg.Vector
		if cfg.Features != nil {
			if f, ok := cfg.Features.ItemFeatures(it, sch, z); ok {
				t.feats[i], t.Tau[i], phi = f, f.Tau, f.Phi
			}
		}
		if t.Tau[i] == nil {
			t.Tau[i] = sch.Vector(it.Reviews, z)
		}
		if it == inst.Target() {
			if phi == nil {
				phi = opinion.AspectVector(it.Reviews, z)
			}
			t.Gamma = phi
		}
	}
	if t.Gamma == nil {
		t.Gamma = opinion.AspectVector(inst.Target().Reviews, z)
	}
	return t
}

// ItemObjective evaluates Eq. 3 for one item's candidate set S:
// Δ(τᵢ, π(S)) + λ²·Δ(Γ, φ(S)).
func ItemObjective(inst *model.Instance, tg *Targets, cfg Config, item int, set []*model.Review) float64 {
	z := inst.Aspects.Len()
	sch := cfg.scheme()
	pi := sch.Vector(set, z)
	phi := opinion.AspectVector(set, z)
	return linalg.SquaredDistance(tg.Tau[item], pi) +
		cfg.Lambda*cfg.Lambda*linalg.SquaredDistance(tg.Gamma, phi)
}

// ObjectiveCompareSets evaluates Eq. 1 on a full selection. The shared
// statsForSets pass yields exactly ItemObjective's per-item terms, summed in
// the same item order, so the value is bit-identical to the per-item loop it
// replaced — without its per-item vector allocations.
func ObjectiveCompareSets(inst *model.Instance, tg *Targets, cfg Config, sets [][]*model.Review) float64 {
	stats := statsForSets(inst, tg, cfg, sets)
	l2 := cfg.Lambda * cfg.Lambda
	var total float64
	for _, st := range stats {
		total += st.OpinionLoss + l2*st.AspectLoss
	}
	return total
}

// ObjectivePlus evaluates Eq. 5 on a full selection: Eq. 1 plus
// μ²·Σ_{i<j} Δ(φ(Sᵢ), φ(Sⱼ)). A single shared pass computes every set's π
// and φ once; Eq. 1's losses and the pairwise term both read from it.
func ObjectivePlus(inst *model.Instance, tg *Targets, cfg Config, sets [][]*model.Review) float64 {
	stats := statsForSets(inst, tg, cfg, sets)
	l2, mu2 := cfg.Lambda*cfg.Lambda, cfg.Mu*cfg.Mu
	var total float64
	for _, st := range stats {
		total += st.OpinionLoss + l2*st.AspectLoss
	}
	for i := 0; i < len(stats); i++ {
		for j := i + 1; j < len(stats); j++ {
			total += mu2 * linalg.SquaredDistance(stats[i].Phi, stats[j].Phi)
		}
	}
	return total
}

// ItemStats summarizes one item's selected set for downstream consumers
// (the similarity graph of §3.1).
type ItemStats struct {
	// OpinionLoss is Δ(τᵢ, π(Sᵢ)).
	OpinionLoss float64
	// AspectLoss is Δ(Γ, φ(Sᵢ)).
	AspectLoss float64
	// Phi is φ(Sᵢ).
	Phi linalg.Vector
	// Pi is π(Sᵢ).
	Pi linalg.Vector
}

// Stats computes per-item statistics of a selection.
func Stats(inst *model.Instance, tg *Targets, cfg Config, sel *Selection) []ItemStats {
	return statsForSets(inst, tg, cfg, sel.Reviews(inst))
}

// StatsForSets is Stats on pre-materialized review sets: callers that
// already hold a Selection.Reviews result (the serving edge builds one to
// assemble the response) pass it here instead of re-gathering it.
func StatsForSets(inst *model.Instance, tg *Targets, cfg Config, sets [][]*model.Review) []ItemStats {
	return statsForSets(inst, tg, cfg, sets)
}

// statsForSets is the shared φ/π pass behind Stats, ObjectivePlus, and
// ObjectiveCompareSets: each set's vectors are computed exactly once. All n
// π/φ vectors live in one slab (they are built and retained together, and
// ItemStats consumers only read them), and the opinion builders' stamp and
// count buffers are shared across items — so the whole pass costs three
// allocations regardless of the item count.
func statsForSets(inst *model.Instance, tg *Targets, cfg Config, sets [][]*model.Review) []ItemStats {
	z := inst.Aspects.Len()
	sch := cfg.scheme()
	dim := sch.Dim(z)
	out := make([]ItemStats, len(sets))
	slab := linalg.NewVector(len(sets) * (dim + z))
	var sc opinion.VecScratch
	for i, s := range sets {
		block := slab[i*(dim+z) : (i+1)*(dim+z)]
		pi, phi := block[:dim:dim], block[dim:]
		opinion.VectorInto(sch, pi, &sc, s, z)
		opinion.AspectVectorInto(phi, &sc, s, z)
		out[i] = ItemStats{
			OpinionLoss: linalg.SquaredDistance(tg.Tau[i], pi),
			AspectLoss:  linalg.SquaredDistance(tg.Gamma, phi),
			Phi:         phi,
			Pi:          pi,
		}
	}
	return out
}

// ItemDistance computes d_ij of §3.1 from two items' stats:
// Δ(τᵢ,π(Sᵢ)) + Δ(τⱼ,π(Sⱼ)) + λ²Δ(Γ,φ(Sᵢ)) + λ²Δ(Γ,φ(Sⱼ)) + μ²Δ(φ(Sᵢ),φ(Sⱼ)).
func ItemDistance(a, b ItemStats, cfg Config) float64 {
	l2, m2 := cfg.Lambda*cfg.Lambda, cfg.Mu*cfg.Mu
	return a.OpinionLoss + b.OpinionLoss +
		l2*a.AspectLoss + l2*b.AspectLoss +
		m2*linalg.SquaredDistance(a.Phi, b.Phi)
}

// randomSubset draws k distinct indices from [0, n) without replacement.
func randomSubset(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	perm := rng.Perm(n)
	idx := perm[:k]
	sort.Ints(idx)
	return idx
}
