package model

import (
	"errors"
	"fmt"
)

// MutationKind classifies a corpus delta.
type MutationKind int

// Mutation kinds, in the order the write API exposes them.
const (
	// MutationAppend adds new reviews to an item.
	MutationAppend MutationKind = iota
	// MutationUpdate replaces an existing review in place (same ID).
	MutationUpdate
	// MutationRemove deletes an existing review.
	MutationRemove
)

// String returns the canonical lower-case kind name used in receipts,
// metrics labels, and the store's mutation log.
func (k MutationKind) String() string {
	switch k {
	case MutationAppend:
		return "append"
	case MutationUpdate:
		return "update"
	case MutationRemove:
		return "remove"
	default:
		return fmt.Sprintf("MutationKind(%d)", int(k))
	}
}

// Errors reported by the mutation API.
var (
	ErrUnknownReview   = errors.New("model: unknown review")
	ErrDuplicateReview = errors.New("model: duplicate review ID")
	ErrItemMismatch    = errors.New("model: review item_id does not match target item")
)

// Mutation describes one applied corpus delta: the touched item before and
// after, and the review IDs involved. Old and New are distinct snapshots —
// mutations are copy-on-write, so any Instance or Selection holding Old
// keeps observing a consistent pre-mutation view while New is what the
// corpus map serves from now on. Downstream caches keyed by item pointer
// identity (featstore entries and their templates) use exactly this
// property: untouched items keep their pointers, so only the touched
// item's cached artifacts need refreshing.
type Mutation struct {
	Kind      MutationKind
	ItemID    string
	ReviewIDs []string
	// Old is the pre-mutation item snapshot; New is the replacement now
	// installed in the corpus.
	Old, New *Item
}

// Clone returns a shallow copy of the corpus: a fresh Items map sharing
// every item pointer with the receiver. Serving layers mutate a clone and
// swap the corpus pointer so concurrent readers of the old map never race
// with the write.
func (c *Corpus) Clone() *Corpus {
	items := make(map[string]*Item, len(c.Items))
	for id, it := range c.Items {
		items[id] = it
	}
	return &Corpus{Category: c.Category, Aspects: c.Aspects, Items: items}
}

// cowItem returns a copy-on-write replacement for the item: all scalar
// fields and the AlsoBought slice are shared, the Reviews slice is a fresh
// copy of length len(old.Reviews)+extra capacity.
func cowItem(old *Item, extraCap int) *Item {
	it := &Item{
		ID:         old.ID,
		Title:      old.Title,
		Category:   old.Category,
		Price:      old.Price,
		AlsoBought: old.AlsoBought,
		Reviews:    make([]*Review, len(old.Reviews), len(old.Reviews)+extraCap),
	}
	copy(it.Reviews, old.Reviews)
	return it
}

// validateReview checks one incoming review against the corpus vocabulary
// and the target item: non-empty ID, matching (or empty) item_id, in-range
// aspects, and valid polarities. The review's ItemID is normalized to the
// item on success.
func (c *Corpus) validateReview(it *Item, r *Review) error {
	if r == nil {
		return fmt.Errorf("%w (item %s)", ErrEmptyReviewID, it.ID)
	}
	if r.ID == "" {
		return fmt.Errorf("%w (item %s)", ErrEmptyReviewID, it.ID)
	}
	if r.ItemID != "" && r.ItemID != it.ID {
		return fmt.Errorf("%w: review %q carries item_id %q, want %q", ErrItemMismatch, r.ID, r.ItemID, it.ID)
	}
	z := c.Aspects.Len()
	for _, m := range r.Mentions {
		if m.Aspect < 0 || m.Aspect >= z {
			return fmt.Errorf("%w: aspect %d, z=%d (review %s)", ErrBadAspect, m.Aspect, z, r.ID)
		}
		if !m.Polarity.Valid() {
			return fmt.Errorf("%w: %d (review %s)", ErrBadPolarity, m.Polarity, r.ID)
		}
	}
	r.ItemID = it.ID
	return nil
}

// reviewIndex returns the position of the review with the given ID, or -1.
func reviewIndex(it *Item, reviewID string) int {
	for i, r := range it.Reviews {
		if r.ID == reviewID {
			return i
		}
	}
	return -1
}

// AppendReviews appends reviews to the item, validating each against the
// corpus vocabulary and rejecting IDs already present on the item. The item
// is replaced copy-on-write: the returned Mutation carries both snapshots,
// and every other item in the corpus keeps its pointer.
func (c *Corpus) AppendReviews(itemID string, reviews ...*Review) (*Mutation, error) {
	old, ok := c.Items[itemID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownItem, itemID)
	}
	if len(reviews) == 0 {
		return nil, fmt.Errorf("model: append to %q with no reviews", itemID)
	}
	next := cowItem(old, len(reviews))
	ids := make([]string, 0, len(reviews))
	for _, r := range reviews {
		if err := c.validateReview(next, r); err != nil {
			return nil, err
		}
		if reviewIndex(next, r.ID) >= 0 {
			return nil, fmt.Errorf("%w: %q on item %s", ErrDuplicateReview, r.ID, itemID)
		}
		next.Reviews = append(next.Reviews, r)
		ids = append(ids, r.ID)
	}
	c.Items[itemID] = next
	return &Mutation{Kind: MutationAppend, ItemID: itemID, ReviewIDs: ids, Old: old, New: next}, nil
}

// UpdateReview replaces the item's review with the same ID, copy-on-write.
func (c *Corpus) UpdateReview(itemID string, r *Review) (*Mutation, error) {
	old, ok := c.Items[itemID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownItem, itemID)
	}
	next := cowItem(old, 0)
	if err := c.validateReview(next, r); err != nil {
		return nil, err
	}
	pos := reviewIndex(next, r.ID)
	if pos < 0 {
		return nil, fmt.Errorf("%w: %q on item %s", ErrUnknownReview, r.ID, itemID)
	}
	next.Reviews[pos] = r
	c.Items[itemID] = next
	return &Mutation{Kind: MutationUpdate, ItemID: itemID, ReviewIDs: []string{r.ID}, Old: old, New: next}, nil
}

// RemoveReview deletes the item's review with the given ID, copy-on-write.
func (c *Corpus) RemoveReview(itemID, reviewID string) (*Mutation, error) {
	old, ok := c.Items[itemID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownItem, itemID)
	}
	pos := reviewIndex(old, reviewID)
	if pos < 0 {
		return nil, fmt.Errorf("%w: %q on item %s", ErrUnknownReview, reviewID, itemID)
	}
	next := cowItem(old, 0)
	next.Reviews = append(next.Reviews[:pos], next.Reviews[pos+1:]...)
	c.Items[itemID] = next
	return &Mutation{Kind: MutationRemove, ItemID: itemID, ReviewIDs: []string{reviewID}, Old: old, New: next}, nil
}
