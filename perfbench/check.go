package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"sync"

	"comparesets/internal/core"
	"comparesets/internal/model"
)

// bodies keeps, during the timed window, one copy of each distinct answer
// per request key. The output checks parse them after the window, so no
// JSON decoding competes with the servers for the CPU while latency is
// measured; hot reads replay the same edge-cached bytes, so each distinct
// payload is stored and checked once.
type bodies struct {
	seed  maphash.Seed
	mu    sync.Mutex
	byKey map[bodyKey][]byte
}

type bodyKey struct {
	hash uint64
	key  string
}

func newBodies() *bodies {
	return &bodies{seed: maphash.MakeSeed(), byKey: map[bodyKey][]byte{}}
}

// add records the answer to a request with the given key and returns the
// hash that finds it again.
func (b *bodies) add(key string, body []byte) uint64 {
	h := maphash.Bytes(b.seed, body)
	k := bodyKey{h, key}
	b.mu.Lock()
	if _, ok := b.byKey[k]; !ok {
		b.byKey[k] = bytes.Clone(body)
	}
	b.mu.Unlock()
	return h
}

// checker validates answers against the benchmark's own copy of the
// corpora, which no server ever touches.
type checker struct {
	corpora map[string]*model.Corpus
	// owned lists, per category/item, the benchmark reviews a write may
	// have added to that item.
	owned map[string]map[string]bool
}

// receiptTotals sums the invalidation work the write receipts report.
type receiptTotals struct {
	n, computed, reused, dropped int
}

func newChecker(corpora map[string]*model.Corpus, reqs []request) *checker {
	c := &checker{corpora: corpora, owned: map[string]map[string]bool{}}
	for _, r := range reqs {
		if r.kind == opAppend {
			id := r.tg.category + "/" + r.tg.item
			if c.owned[id] == nil {
				c.owned[id] = map[string]bool{}
			}
			c.owned[id][r.review] = true
		}
	}
	return c
}

// check validates the answer to one request, adding a write's receipt to
// the totals.
func (c *checker) check(r request, body []byte, totals *receiptTotals) error {
	if r.kind == opSelect {
		return c.checkSelect(r, body)
	}
	rec, err := c.checkReceipt(r, body)
	if err == nil {
		totals.n++
		totals.computed += rec.Invalidation.ColumnsComputed
		totals.reused += rec.Invalidation.ColumnsReused
		totals.dropped += rec.Invalidation.ProblemsDropped
	}
	return err
}

// selectBody is the part of a select response the checks read.
type selectBody struct {
	Algorithm string  `json:"algorithm"`
	Objective float64 `json:"objective"`
	Items     []struct {
		ID       string `json:"id"`
		IsTarget bool   `json:"is_target"`
		Reviews  []struct {
			ID string `json:"id"`
		} `json:"reviews"`
	} `json:"items"`
	Shortlist []int `json:"shortlist"`
	Optimal   *bool `json:"optimal"`
	Degraded  bool  `json:"degraded"`
}

// checkSelect checks a select response's structure: one entry per instance
// item in instance order, at most m reviews each, every review one of that
// item's own, and a canonical (not degraded) answer.
func (c *checker) checkSelect(r request, body []byte) error {
	var resp selectBody
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("select %s: decoding: %w", r.key(), err)
	}
	inst, err := c.corpora[r.tg.category].NewInstance(r.tg.item, 0)
	if err != nil {
		return fmt.Errorf("select %s: %w", r.key(), err)
	}
	switch {
	case resp.Algorithm != "CompaReSetS+":
		return fmt.Errorf("select %s: algorithm %q", r.key(), resp.Algorithm)
	case resp.Degraded || resp.Optimal != nil:
		return fmt.Errorf("select %s: degraded answer", r.key())
	case len(resp.Items) != len(inst.Items):
		return fmt.Errorf("select %s: %d items, instance has %d", r.key(), len(resp.Items), len(inst.Items))
	case math.IsNaN(resp.Objective) || resp.Objective < 0:
		return fmt.Errorf("select %s: objective %v", r.key(), resp.Objective)
	}
	for i, it := range resp.Items {
		want := inst.Items[i]
		if it.ID != want.ID || it.IsTarget != (i == 0) {
			return fmt.Errorf("select %s: item %d is %q, want %q", r.key(), i, it.ID, want.ID)
		}
		if len(it.Reviews) > r.m {
			return fmt.Errorf("select %s: item %s has %d reviews, m=%d", r.key(), it.ID, len(it.Reviews), r.m)
		}
		seen := map[string]bool{}
		for _, rv := range it.Reviews {
			if seen[rv.ID] || (want.ReviewByID(rv.ID) == nil && !c.owned[r.tg.category+"/"+it.ID][rv.ID]) {
				return fmt.Errorf("select %s: review %q is not item %s's or is repeated", r.key(), rv.ID, it.ID)
			}
			seen[rv.ID] = true
		}
	}
	if r.k > 0 {
		if len(resp.Shortlist) != min(r.k, len(inst.Items)) {
			return fmt.Errorf("select %s: shortlist of %d, k=%d", r.key(), len(resp.Shortlist), r.k)
		}
		seen := map[int]bool{}
		for _, p := range resp.Shortlist {
			if p < 0 || p >= len(inst.Items) || seen[p] {
				return fmt.Errorf("select %s: shortlist position %d out of range or repeated", r.key(), p)
			}
			seen[p] = true
		}
	}
	return nil
}

// receiptBody is the part of a mutation receipt the checks read.
type receiptBody struct {
	Kind          string   `json:"kind"`
	Category      string   `json:"category"`
	Item          string   `json:"item"`
	Reviews       []string `json:"reviews"`
	Generation    uint64   `json:"generation"`
	AffectedItems []string `json:"affected_items"`
	Invalidation  struct {
		Scope           string `json:"scope"`
		ProblemsDropped int    `json:"problems_dropped"`
		ColumnsComputed int    `json:"columns_computed"`
		ColumnsReused   int    `json:"columns_reused"`
	} `json:"invalidation"`
}

// checkReceipt checks that a write's receipt names the write and exactly the
// item it touched.
func (c *checker) checkReceipt(r request, body []byte) (receiptBody, error) {
	var rec receiptBody
	if err := json.Unmarshal(body, &rec); err != nil {
		return rec, fmt.Errorf("%s %s: decoding receipt: %w", r.kind, r.review, err)
	}
	if rec.Kind != r.kind.String() || rec.Category != r.tg.category || rec.Item != r.tg.item ||
		len(rec.Reviews) != 1 || rec.Reviews[0] != r.review || rec.Generation == 0 ||
		len(rec.AffectedItems) != 1 || rec.AffectedItems[0] != r.tg.item || rec.Invalidation.Scope != "item" {
		return rec, fmt.Errorf("%s %s on %s: receipt does not match the write: %.300s", r.kind, r.review, r.tg.item, body)
	}
	return rec, nil
}

// compareCore recomputes a sampled select with a direct CompaReSetS+ call
// on the benchmark's corpus copy: the objective and every selected review
// ID must match the served answer exactly.
func (c *checker) compareCore(r request, body []byte) error {
	var resp selectBody
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("select %s: decoding: %w", r.key(), err)
	}
	inst, err := c.corpora[r.tg.category].NewInstance(r.tg.item, 0)
	if err != nil {
		return err
	}
	sel, _ := core.SelectorByName("CompaReSetS+")
	want, err := sel.Select(inst, core.Config{M: r.m, Lambda: r.lambda, Mu: 1})
	if err != nil {
		return fmt.Errorf("select %s: direct core call: %w", r.key(), err)
	}
	if want.Objective != resp.Objective {
		return fmt.Errorf("select %s: served objective %v, core %v", r.key(), resp.Objective, want.Objective)
	}
	for i, set := range want.Reviews(inst) {
		got := resp.Items[i].Reviews
		if len(got) != len(set) {
			return fmt.Errorf("select %s: item %d served %d reviews, core %d", r.key(), i, len(got), len(set))
		}
		for j, rv := range set {
			if got[j].ID != rv.ID {
				return fmt.Errorf("select %s: item %d review %d served %s, core %s", r.key(), i, j, got[j].ID, rv.ID)
			}
		}
	}
	return nil
}
