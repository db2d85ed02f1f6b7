package core

import (
	"sync"

	"comparesets/internal/model"
	"comparesets/internal/regress"
)

// problemKind distinguishes the two per-item regression designs.
type problemKind uint8

const (
	problemBase problemKind = iota // CompaReSetS: [op; λ·asp]
	problemPlus                    // CompaReSetS+: [op; λ·asp; √(n−1)·μ·asp]
)

// problemKey identifies a per-item regression problem by everything its
// design matrix depends on: the item's reviews (by corpus-resident item
// identity), the opinion scheme and vocabulary size, the λ scale, the
// collapsed μ-block scale √(n−1)·μ (which folds in the instance size).
// The review columns themselves are the item's one float64 sparse
// representation, so nothing else can tell two builds apart.
type problemKey struct {
	item   *model.Item
	kind   problemKind
	scheme string
	z      int
	lambda float64
	muW    float64
}

// maxCachedProblems bounds a ProblemCache (one per corpus). An item holds a
// CompaReSetS template per (λ, scheme) and a CompaReSetS+ template per
// (λ, scheme, √(n−1)·μ), all over the item's one set of float64 review
// columns, and the μ-block scale folds in the size n of every instance the
// item appears in, so the count grows with λ values times instance sizes,
// not just with items. The perfbench cold_select shapes build 1,648 /
// 1,834 / 1,616 templates (Cellphone / Toy / Clothing) for their two λ
// values; a run that reaches all four of its λ layers builds 3,668 in Toy,
// near this bound. Overflow resets the whole map, so every template is
// then rebuilt; the reset keeps the cache a pure accelerator with no
// eviction bookkeeping on the hit path.
const maxCachedProblems = 4096

// ProblemCache shares preprocessed per-item regression problems
// (regress.Problem: dedup grouping, design blocks, Gram matrix) across
// selections over the same corpus. The problem for an item depends only on
// the key above — never on the request's target — so every selection over
// a corpus after the first pays no dedup or Gram products for the items it
// shares with earlier requests. Builds happen while a workload's shapes
// are first seen, not on the steady cold path: of 71,391 builds counted
// over seven perfbench cold_select runs, all fell in set-up and none in
// the timed window.
//
// The cache stores immutable template problems and hands each caller a
// regress.Problem.Share of the template: the preprocessed state is shared,
// the solver scratch is per-holder. That makes the cache safe for fully
// concurrent use — any number of selections may hit it at once. A template
// holds no copy of its design: its blocks point at the item's review
// columns in the feature store (or, without one, at the columns the
// building request computed).
type ProblemCache struct {
	mu sync.Mutex
	m  map[problemKey]*regress.Problem
}

// NewProblemCache returns an empty cache.
func NewProblemCache() *ProblemCache {
	return &ProblemCache{m: make(map[problemKey]*regress.Problem)}
}

// Len returns the number of cached problems.
func (pc *ProblemCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.m)
}

// Bytes returns the bytes the cached templates own (regress.Problem.Bytes:
// header, grouping, Gram matrix and block list), not counting the review
// columns their blocks point at or the map itself.
func (pc *ProblemCache) Bytes() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	var n int
	for _, p := range pc.m {
		n += p.Bytes()
	}
	return n
}

// InvalidateItem drops every cached problem built from the given item
// snapshot, returning how many were removed. Corpus mutations replace items
// copy-on-write, so the post-mutation snapshot misses the cache naturally
// (fresh pointer); dropping the old pointer's problems just releases their
// memory — nothing can request them again once the corpus stops serving
// the snapshot.
func (pc *ProblemCache) InvalidateItem(it *model.Item) int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	var n int
	for k := range pc.m {
		if k.item == it {
			delete(pc.m, k)
			n++
		}
	}
	return n
}

// getOrBuild returns a private share of the cached problem for key,
// building and memoizing the template on first use.
func (pc *ProblemCache) getOrBuild(key problemKey, build func() *regress.Problem) *regress.Problem {
	pc.mu.Lock()
	p, ok := pc.m[key]
	pc.mu.Unlock()
	if ok {
		return p.Share()
	}
	p = build()
	pc.mu.Lock()
	// A concurrent builder may have won; keep the first so every user of the
	// key sees one template (harmless either way — builds are deterministic).
	if prev, ok := pc.m[key]; ok {
		p = prev
	} else {
		if len(pc.m) >= maxCachedProblems {
			pc.m = make(map[problemKey]*regress.Problem)
		}
		pc.m[key] = p
	}
	pc.mu.Unlock()
	return p.Share()
}
