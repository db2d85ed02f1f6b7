// Package comparesets is the public API of this repository — a Go
// implementation of "Selecting Comparative Sets of Reviews Across Multiple
// Items" (Le & Lauw, EDBT 2025).
//
// Given a target product and a list of comparative products (e.g. an
// e-commerce "also bought" list), the library selects at most m reviews per
// product such that every selected set is representative of its product's
// opinions (CompaReSetS, Problem 1) and, optionally, the sets are
// synchronized to discuss the same aspects for easy side-by-side comparison
// (CompaReSetS+, Problem 2). A similarity graph over the products then
// supports narrowing a long comparison list to the k most mutually similar
// items including the target (TargetHkS, Problem 3), with both an exact
// branch-and-bound solver and a fast greedy approximation.
//
// # Quick start
//
//	corpus, _ := comparesets.GenerateCorpus("Cellphone", 50, 7)
//	targets := comparesets.TargetProducts(corpus)
//	inst, _ := corpus.NewInstance(targets[0], 0)
//	sel, _ := comparesets.SelectSynchronized(inst, comparesets.DefaultConfig(3))
//	short, _ := comparesets.ShortlistWith(inst, sel, comparesets.DefaultConfig(3), 3,
//		comparesets.ShortlistOptions{Method: comparesets.ShortlistExact})
//
// # Mutating a corpus
//
// Corpora support incremental, copy-on-write review mutation — see
// Corpus.AppendReviews, Corpus.UpdateReview, and Corpus.RemoveReview. Each
// returns a Mutation describing the delta (old and new item snapshots),
// which the serving layer uses to invalidate per-item caches instead of
// rebuilding the whole corpus:
//
//	m, _ := corpus.AppendReviews("p07", &comparesets.Review{ID: "r-new", Rating: 5})
//	fmt.Println(m.Kind, m.ItemID, m.ReviewIDs) // append p07 [r-new]
//
// The internal packages implement every substrate from scratch on the
// standard library: linear algebra with incremental Cholesky factors
// (internal/linalg), the Integer-Regression machinery, whose one NOMP
// solver works in Gram space and drops an atom that would make the
// factorization singular (internal/regress), ROUGE metrics
// (internal/rouge), a synthetic Amazon-like corpus generator
// (internal/datagen) with a frequency-based aspect-sentiment extractor
// (internal/aspectex), the TargetHkS solvers (internal/simgraph), and the
// full experiment harness reproducing the paper's tables and figures
// (internal/experiments).
package comparesets

import (
	"context"
	"fmt"
	"time"

	"comparesets/internal/amazon"
	"comparesets/internal/aspectex"
	"comparesets/internal/core"
	"comparesets/internal/datagen"
	"comparesets/internal/dataset"
	"comparesets/internal/explain"
	"comparesets/internal/lexicon"
	"comparesets/internal/metrics"
	"comparesets/internal/model"
	"comparesets/internal/obs"
	"comparesets/internal/opinion"
	"comparesets/internal/rouge"
	"comparesets/internal/simgraph"
	"comparesets/internal/store"
	"comparesets/internal/summarize"
)

// Data-model types re-exported for API users.
type (
	// Corpus is a product category with its aspect vocabulary and items.
	Corpus = model.Corpus
	// Item is a product with reviews and an "also bought" list.
	Item = model.Item
	// Review is a single product review with aspect-opinion annotations.
	Review = model.Review
	// Mention is one aspect-opinion observation inside a review.
	Mention = model.Mention
	// Polarity is the sentiment polarity of a mention.
	Polarity = model.Polarity
	// Vocabulary maps aspect names to dense indices.
	Vocabulary = model.Vocabulary
	// Instance is one problem instance: the target item followed by its
	// comparative items.
	Instance = model.Instance
	// Mutation describes one applied corpus delta: the touched item before
	// and after, and the review IDs involved. Returned by
	// Corpus.AppendReviews, Corpus.UpdateReview, and Corpus.RemoveReview.
	Mutation = model.Mutation
	// MutationKind classifies a corpus delta (append, update, remove).
	MutationKind = model.MutationKind
	// Config carries the selection hyperparameters (m, λ, μ, scheme).
	Config = core.Config
	// Selection is a review-selection result.
	Selection = core.Selection
	// Selector is a review-selection algorithm.
	Selector = core.Selector
	// Graph is the item-similarity graph of §3.
	Graph = simgraph.Graph
	// ShortlistResult is the outcome of a TargetHkS solver.
	ShortlistResult = simgraph.Result
	// RougeResult bundles ROUGE-1/-2/-L scores for a text pair.
	RougeResult = rouge.Result
)

// Polarity values.
const (
	Positive = model.Positive
	Negative = model.Negative
	Neutral  = model.Neutral
)

// Mutation kinds, in the order the write API exposes them.
const (
	MutationAppend = model.MutationAppend
	MutationUpdate = model.MutationUpdate
	MutationRemove = model.MutationRemove
)

// NewVocabulary builds an aspect vocabulary from names (duplicates
// collapse). Use it when assembling instances from your own data.
func NewVocabulary(names []string) *Vocabulary { return model.NewVocabulary(names) }

// DefaultConfig returns the paper's tuned configuration (§4.1.4): λ = 1,
// μ = 0.1, binary opinions, with the given review budget m.
func DefaultConfig(m int) Config {
	return Config{M: m, Lambda: 1, Mu: 0.1}
}

// Select solves CompaReSetS (Problem 1): independent per-item
// Integer-Regression against the target opinion and aspect distributions.
func Select(inst *Instance, cfg Config) (*Selection, error) {
	return SelectContext(context.Background(), inst, cfg)
}

// SelectContext is Select with cooperative cancellation: the pipeline
// checks ctx at deterministic checkpoints (before each per-item regression
// and each NOMP atom extension) and returns ctx.Err() once the context is
// done, without corrupting any shared state. An uncancelled call returns
// results byte-identical to Select.
func SelectContext(ctx context.Context, inst *Instance, cfg Config) (*Selection, error) {
	return core.CompaReSetS{}.SelectContext(ctx, inst, cfg)
}

// SelectSynchronized solves CompaReSetS+ (Problem 2, Algorithm 1):
// CompaReSetS followed by alternating re-selection that synchronizes the
// aspect distributions across items.
func SelectSynchronized(inst *Instance, cfg Config) (*Selection, error) {
	return SelectSynchronizedContext(context.Background(), inst, cfg)
}

// SelectSynchronizedContext is SelectSynchronized with cooperative
// cancellation; Algorithm 1 additionally checks ctx before every
// alternating resync step. See SelectContext for the semantics.
func SelectSynchronizedContext(ctx context.Context, inst *Instance, cfg Config) (*Selection, error) {
	return core.CompaReSetSPlus{}.SelectContext(ctx, inst, cfg)
}

// SelectBatch runs a selector over many independent instances in parallel
// (every target product is an independent problem, §4.1.1). workers ≤ 0
// uses all cores; instance i is solved with Seed = cfg.Seed + i so results
// are deterministic regardless of scheduling.
func SelectBatch(insts []*Instance, sel Selector, cfg Config, workers int) ([]*Selection, error) {
	return SelectBatchContext(context.Background(), insts, sel, cfg, workers)
}

// SelectBatchContext is SelectBatch with cooperative cancellation: once ctx
// is done, unstarted instances are skipped, in-flight instances stop at
// their next checkpoint, and the call returns ctx.Err().
func SelectBatchContext(ctx context.Context, insts []*Instance, sel Selector, cfg Config, workers int) ([]*Selection, error) {
	return core.SelectAllContext(ctx, insts, sel, cfg, workers)
}

// Selectors returns all implemented selection algorithms, including the
// CRS, greedy, and random baselines, in the paper's Table 3 row order.
func Selectors() []Selector { return core.Selectors() }

// SelectorByName returns the selector with the given name
// ("Random", "Crs", "CompaReSetS_Greedy", "CompaReSetS", "CompaReSetS+").
func SelectorByName(name string) (Selector, bool) { return core.SelectorByName(name) }

// SimilarityGraph builds the item-similarity graph of §3.1 from a
// selection: vertices are instance items (vertex 0 = target), edge weights
// invert the pairwise selection distances d_ij. It reads the targets the
// selection carries, computing them under cfg only when it carries none.
func SimilarityGraph(inst *Instance, sel *Selection, cfg Config) *Graph {
	return simgraph.Build(core.Stats(inst, sel.TargetsFor(inst, cfg), cfg, sel), cfg)
}

// ShortlistMethod identifies a TargetHkS solver in the typed v2 API.
type ShortlistMethod int

// Shortlist methods, in the paper's §4.3 order.
const (
	// ShortlistExact is branch and bound, provably optimal within its time
	// budget (the paper's TargetHkS_ILP stand-in).
	ShortlistExact ShortlistMethod = iota
	// ShortlistGreedy is Algorithm 2.
	ShortlistGreedy
	// ShortlistTopK keeps the k−1 items most similar to the target.
	ShortlistTopK
	// ShortlistRandom samples k−1 comparative items uniformly.
	ShortlistRandom
)

// String returns the canonical parseable name of the method.
func (m ShortlistMethod) String() string {
	switch m {
	case ShortlistExact:
		return "exact"
	case ShortlistGreedy:
		return "greedy"
	case ShortlistTopK:
		return "topk"
	case ShortlistRandom:
		return "random"
	default:
		return fmt.Sprintf("ShortlistMethod(%d)", int(m))
	}
}

// ParseShortlistMethod resolves the string names of the v1 API ("exact" —
// with "ilp" as an alias — "greedy", "topk", "random") to a typed method.
func ParseShortlistMethod(s string) (ShortlistMethod, error) {
	switch s {
	case "exact", "ilp":
		return ShortlistExact, nil
	case "greedy":
		return ShortlistGreedy, nil
	case "topk":
		return ShortlistTopK, nil
	case "random":
		return ShortlistRandom, nil
	default:
		return 0, fmt.Errorf("comparesets: unknown shortlist method %q (want exact, greedy, topk, or random)", s)
	}
}

// DefaultShortlistBudget is the exact solver's wall-clock budget when
// ShortlistOptions.Budget is zero — the 60 s the paper used (§4.3).
const DefaultShortlistBudget = 60 * time.Second

// ShortlistOptions configures a TargetHkS solve.
type ShortlistOptions struct {
	// Method selects the solver; the zero value is ShortlistExact.
	Method ShortlistMethod
	// Budget caps the exact solver's wall-clock time; zero means
	// DefaultShortlistBudget, negative means unlimited. On timeout the
	// best incumbent is returned with Optimal = false. Heuristic methods
	// ignore it.
	Budget time.Duration
}

// ShortlistWith narrows the instance to the k most mutually similar items
// including the target (TargetHkS, Problem 3) with typed options; it is
// ShortlistContext with context.Background(). (The stringly-typed
// Shortlist(inst, sel, cfg, k, "exact") form of v1 has been removed; use
// ParseShortlistMethod to bridge string inputs.)
func ShortlistWith(inst *Instance, sel *Selection, cfg Config, k int, opts ShortlistOptions) (ShortlistResult, error) {
	return ShortlistContext(context.Background(), inst, sel, cfg, k, opts)
}

// ShortlistContext solves TargetHkS with typed options and cooperative
// cancellation: the exact solver treats an earlier ctx deadline like an
// exhausted budget and returns its best incumbent flagged Optimal = false.
func ShortlistContext(ctx context.Context, inst *Instance, sel *Selection, cfg Config, k int, opts ShortlistOptions) (ShortlistResult, error) {
	solver, err := shortlistSolver(opts, cfg.Seed)
	if err != nil {
		return ShortlistResult{}, err
	}
	shortlistSpan := obs.StartStage(obs.StageShortlist)
	defer shortlistSpan.Stop()
	g := SimilarityGraph(inst, sel, cfg)
	return solver.SolveContext(ctx, g, k), nil
}

func shortlistSolver(opts ShortlistOptions, seed int64) (simgraph.Solver, error) {
	switch opts.Method {
	case ShortlistExact:
		budget := opts.Budget
		switch {
		case budget == 0:
			budget = DefaultShortlistBudget
		case budget < 0:
			budget = 0 // simgraph.Exact treats zero as unlimited
		}
		return simgraph.Exact{Budget: budget}, nil
	case ShortlistGreedy:
		return simgraph.Greedy{}, nil
	case ShortlistTopK:
		return simgraph.TopK{}, nil
	case ShortlistRandom:
		return simgraph.RandomShortlist{Seed: seed}, nil
	default:
		return nil, fmt.Errorf("comparesets: invalid shortlist method %v", opts.Method)
	}
}

// Categories returns the names of all built-in product categories: the
// paper's evaluation trio ("Cellphone", "Toy", "Clothing") followed by the
// extra library categories ("Electronics", "Kitchen").
func Categories() []string {
	var out []string
	for _, c := range lexicon.AllCategories() {
		out = append(out, c.Name)
	}
	return out
}

// GenerateCorpus synthesizes an Amazon-like corpus for one of the built-in
// categories with the given number of products, deterministic in seed.
func GenerateCorpus(category string, products int, seed int64) (*Corpus, error) {
	cat, ok := lexicon.CategoryByName(category)
	if !ok {
		return nil, fmt.Errorf("comparesets: unknown category %q (want one of %v)", category, Categories())
	}
	return datagen.Generate(datagen.Config{
		Category:       cat,
		Products:       products,
		Reviewers:      3 * products,
		MeanReviews:    15,
		MeanAlsoBought: 7,
		Seed:           seed,
	})
}

// TargetProducts returns the IDs of products that qualify as instance
// targets (at least two in-corpus comparison products), sorted.
func TargetProducts(c *Corpus) []string { return dataset.TargetIDs(c) }

// LoadCorpus reads a corpus from a JSON file written by SaveCorpus.
func LoadCorpus(path string) (*Corpus, error) { return model.LoadCorpus(path) }

// ReviewStore is the append-only, CRC-checked on-disk review log with item
// and aspect indexes (see internal/store for the format and recovery
// semantics).
type ReviewStore = store.Store

// OpenReviewStore opens (or creates) a review store at path, truncating any
// torn tail left by a crash.
func OpenReviewStore(path string) (*ReviewStore, error) { return store.Open(path) }

// LoadAmazonCorpus converts real Amazon Product Review Dataset files (He &
// McAuley JSON-lines format, optionally gzipped) into an annotated corpus
// using the named category's lexicon.
func LoadAmazonCorpus(reviewPath, metaPath, category string, minReviews int) (*Corpus, error) {
	return amazon.LoadFiles(reviewPath, metaPath, amazon.Options{
		Category:   category,
		MinReviews: minReviews,
	})
}

// SaveCorpus writes the corpus to a JSON file.
func SaveCorpus(c *Corpus, path string) error { return model.SaveCorpus(c, path) }

// ExtractMentions runs the frequency-based aspect-sentiment extractor on
// raw review text using the named category's lexicon. Aspect indices match
// the vocabulary of corpora generated for that category.
func ExtractMentions(category, text string) ([]Mention, error) {
	cat, ok := lexicon.CategoryByName(category)
	if !ok {
		return nil, fmt.Errorf("comparesets: unknown category %q", category)
	}
	return aspectex.New(cat).Extract(text), nil
}

// Summarize condenses a set of reviews into at most maxSentences extracted
// sentences via TextRank-style centrality — the §4.6.1 follow-on for when
// even m selected reviews are too much to read.
func Summarize(reviews []*Review, maxSentences int) []string {
	return summarize.Reviews(reviews, summarize.Options{MaxSentences: maxSentences})
}

// ItemComparison is a template-based comparative explanation of the target
// against one comparative item.
type ItemComparison = explain.ItemComparison

// Explain derives per-aspect comparative explanations from a selection
// (template generation in the spirit of the paper's companion WSDM'21
// system, reference [18]).
func Explain(inst *Instance, sel *Selection) []ItemComparison {
	return explain.Compare(inst, sel)
}

// ExplainLines flattens comparisons into at most maxLines one-sentence
// explanations, most decisive aspects first.
func ExplainLines(cmps []ItemComparison, maxLines int) []string {
	return explain.Lines(cmps, maxLines)
}

// Rouge scores candidate against reference text with ROUGE-1/-2/-L, the
// alignment metric of the paper's evaluation.
func Rouge(candidate, reference string) RougeResult {
	return rouge.Compare(candidate, reference)
}

// SelectionMetrics scores a selection along the related-work quality axes
// (§5.1): aspect coverage, opinion-pair coverage, redundancy, and
// representativeness, averaged over the instance's items.
type SelectionMetrics = metrics.InstanceMetrics

// Evaluate scores a selection on the §5.1 quality axes.
func Evaluate(inst *Instance, sel *Selection) SelectionMetrics {
	return metrics.EvaluateSelection(inst, sel)
}

// OpinionSchemeNames lists the supported opinion definitions (§4.2.3):
// "binary", "3-polarity", "unary-scale".
func OpinionSchemeNames() []string {
	var out []string
	for _, s := range opinion.Schemes() {
		out = append(out, s.Name())
	}
	return out
}

// WithScheme returns a copy of cfg using the named opinion definition.
func WithScheme(cfg Config, scheme string) (Config, error) {
	s, err := opinion.SchemeByName(scheme)
	if err != nil {
		return cfg, err
	}
	cfg.Scheme = s
	return cfg, nil
}
