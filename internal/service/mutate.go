// Incremental corpus mutation: the delta write path.
//
// Before this API existed, the only write was AddCorpus — a whole-epoch
// flush that rebuilt every feature slab, dropped every cached problem, and
// invalidated every cached response of the category, even for a single new
// review. The mutation endpoints thread a typed delta through each layer
// instead:
//
//	model      copy-on-write item replacement (untouched items keep their
//	           pointers, so pointer-keyed caches stay warm)
//	store      one log-append record (no rewrite) when a MutationLog is
//	           configured, written before the in-memory swap
//	featstore  per-item column refill reusing every unchanged review
//	           column; the replaced blocks drop their regression templates
//	servecache per-item generations fold into the select cache tag, so
//	           only cached responses whose instance contains the touched
//	           item stop answering
//
// Each mutation returns a MutationReceipt describing exactly what was
// invalidated, so callers can audit the blast radius of a write.
package service

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/fnv"
	"net/http"
	"strconv"
	"time"

	"comparesets/internal/model"
	"comparesets/internal/obs"
)

// MutationReceipt is the response body of every mutation endpoint: what
// changed, the epoch coordinates now governing the touched item, and the
// exact invalidation work the delta caused.
type MutationReceipt struct {
	// Kind is "append", "update", or "remove".
	Kind     string `json:"kind"`
	Category string `json:"category"`
	Item     string `json:"item"`
	// Reviews lists the review IDs the mutation touched.
	Reviews []string `json:"reviews"`
	// Epoch is the category's base epoch token (unchanged by mutations —
	// only AddCorpus bumps it); Generation is the touched item's mutation
	// generation within that epoch. Together they identify the item's cache
	// lineage: cached selections over instances containing the item are
	// tagged with (epoch, generation) and stopped answering.
	Epoch      string `json:"epoch"`
	Generation uint64 `json:"generation"`
	// AffectedItems lists the items whose cached artifacts were invalidated
	// (the touched item; instances containing it re-tag automatically).
	AffectedItems []string          `json:"affected_items"`
	Invalidation  InvalidationScope `json:"invalidation"`
	ElapsedMS     float64           `json:"elapsed_ms"`
}

// InvalidationScope quantifies a mutation's cache blast radius.
type InvalidationScope struct {
	// Scope is "item" for mutations; AddCorpus invalidations are "epoch".
	Scope string `json:"scope"`
	// ProblemsDropped counts the regression templates the touched item's
	// replaced feature blocks held (one block per scheme seen so far).
	ProblemsDropped int `json:"problems_dropped"`
	// ColumnsComputed / ColumnsReused count feature columns rebuilt fresh
	// vs copied from the previous snapshot during the featstore refill.
	ColumnsComputed int `json:"columns_computed"`
	ColumnsReused   int `json:"columns_reused"`
}

// mutationError maps model mutation failures onto the API error envelope:
// unknown references are 404s, validation failures are 422s naming the
// offending field.
func mutationError(err error) *apiError {
	switch {
	case errors.Is(err, model.ErrUnknownItem), errors.Is(err, model.ErrUnknownReview):
		return notFound("%v", err)
	case errors.Is(err, model.ErrEmptyReviewID), errors.Is(err, model.ErrDuplicateReview):
		return fieldError("id", "%v", err)
	case errors.Is(err, model.ErrItemMismatch):
		return fieldError("item_id", "%v", err)
	case errors.Is(err, model.ErrBadAspect), errors.Is(err, model.ErrBadPolarity):
		return fieldError("mentions", "%v", err)
	default:
		return unprocessable(err)
	}
}

// applyMutation runs one corpus delta end to end under the write lock:
// clone, mutate, WAL-append (log first — a mutation that cannot be made
// durable is not applied), swap, bump the item generation, refill the
// touched feature columns, which drops the old snapshot's regression
// templates. The receipt reports what happened.
func (s *Server) applyMutation(category, kind string, mutate func(c *model.Corpus) (*model.Mutation, error)) (*MutationReceipt, *apiError) {
	start := time.Now()
	span := obs.StartStage(obs.StageMutateApply)
	s.mu.Lock()
	c, ok := s.corpora[category]
	if !ok {
		s.mu.Unlock()
		span.Stop()
		return nil, notFound("unknown category %q", category)
	}
	next := c.Clone()
	m, err := mutate(next)
	if err != nil {
		s.mu.Unlock()
		span.Stop()
		return nil, mutationError(err)
	}
	if s.mutlog != nil {
		if lerr := s.mutlog.AppendMutation(m); lerr != nil {
			// Write-ahead ordering: the in-memory state is untouched (the
			// mutated clone is discarded), so memory and log stay consistent.
			s.mu.Unlock()
			span.Stop()
			return nil, internalError(lerr)
		}
	}
	s.corpora[category] = next
	gens := s.gens[category]
	if gens == nil {
		gens = map[string]uint64{}
		s.gens[category] = gens
	}
	gens[m.ItemID]++
	gen := gens[m.ItemID]
	computed, reused, dropped := s.feats[category].Apply(next, m)
	epoch := s.epochs[category]
	s.mu.Unlock()
	span.Stop()

	s.reg.Counter("comparesets_mutations_total",
		"Corpus mutations applied, by kind.", obs.Labels{"kind": kind}).Inc()
	s.reg.Counter("comparesets_invalidations_total",
		"Cache invalidations by scope: item (mutation) or epoch (corpus replace).",
		obs.Labels{"scope": "item"}).Inc()

	return &MutationReceipt{
		Kind:          kind,
		Category:      category,
		Item:          m.ItemID,
		Reviews:       m.ReviewIDs,
		Epoch:         epoch,
		Generation:    gen,
		AffectedItems: []string{m.ItemID},
		Invalidation: InvalidationScope{
			Scope:           "item",
			ProblemsDropped: dropped,
			ColumnsComputed: computed,
			ColumnsReused:   reused,
		},
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	}, nil
}

// AppendReviewsBody is the POST .../reviews request body.
type AppendReviewsBody struct {
	Reviews []*model.Review `json:"reviews"`
}

// handleAppendReviews serves
// POST /api/v1/corpora/{category}/items/{item}/reviews.
func (s *Server) handleAppendReviews(w http.ResponseWriter, r *http.Request) {
	category, item := r.PathValue("category"), r.PathValue("item")
	var body AppendReviewsBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		s.writeAPIError(w, badRequest("decoding request: %v", err))
		return
	}
	if len(body.Reviews) == 0 {
		s.writeAPIError(w, fieldError("reviews", "at least one review is required"))
		return
	}
	receipt, ae := s.applyMutation(category, "append", func(c *model.Corpus) (*model.Mutation, error) {
		return c.AppendReviews(item, body.Reviews...)
	})
	if ae != nil {
		s.writeAPIError(w, ae)
		return
	}
	s.writeJSON(w, http.StatusOK, receipt)
}

// handleUpdateReview serves
// PATCH /api/v1/corpora/{category}/items/{item}/reviews/{review}. The body
// is the replacement review; its id, when present, must match the path.
func (s *Server) handleUpdateReview(w http.ResponseWriter, r *http.Request) {
	category, item, review := r.PathValue("category"), r.PathValue("item"), r.PathValue("review")
	var rev model.Review
	if err := json.NewDecoder(r.Body).Decode(&rev); err != nil {
		s.writeAPIError(w, badRequest("decoding request: %v", err))
		return
	}
	if rev.ID == "" {
		rev.ID = review
	}
	if rev.ID != review {
		s.writeAPIError(w, fieldError("id", "body review id %q does not match path id %q", rev.ID, review))
		return
	}
	receipt, ae := s.applyMutation(category, "update", func(c *model.Corpus) (*model.Mutation, error) {
		return c.UpdateReview(item, &rev)
	})
	if ae != nil {
		s.writeAPIError(w, ae)
		return
	}
	s.writeJSON(w, http.StatusOK, receipt)
}

// handleRemoveReview serves
// DELETE /api/v1/corpora/{category}/items/{item}/reviews/{review}.
func (s *Server) handleRemoveReview(w http.ResponseWriter, r *http.Request) {
	category, item, review := r.PathValue("category"), r.PathValue("item"), r.PathValue("review")
	receipt, ae := s.applyMutation(category, "remove", func(c *model.Corpus) (*model.Mutation, error) {
		return c.RemoveReview(item, review)
	})
	if ae != nil {
		s.writeAPIError(w, ae)
		return
	}
	s.writeJSON(w, http.StatusOK, receipt)
}

// instanceEpoch derives the cache tag of one request from the category's
// base epoch and the mutation generations of exactly the instance's member
// items. Instances containing no mutated item keep the bare base token —
// their cached responses survive every mutation of other items — while any
// member generation change re-tags (and thereby invalidates) the
// instance's cached selections.
func instanceEpoch(base string, gens map[string]uint64, inst *model.Instance) string {
	if len(gens) == 0 {
		return base
	}
	h := fnv.New64a()
	touched := false
	var buf [8]byte
	for _, it := range inst.Items {
		if g := gens[it.ID]; g > 0 {
			touched = true
			h.Write([]byte(it.ID))
			binary.BigEndian.PutUint64(buf[:], g)
			h.Write(buf[:])
		}
	}
	if !touched {
		return base
	}
	return base + "." + strconv.FormatUint(h.Sum64(), 16)
}
