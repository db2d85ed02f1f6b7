// Package featstore holds corpus-resident precomputed review features.
//
// Every selection request that references a loaded corpus used to recompute
// each review's opinion column π and aspect column φ inside the per-request
// feature cache (internal/core), even though those columns depend only on
// the review and the opinion scheme — never on the request. featstore
// computes them once per (corpus, scheme): either eagerly when a corpus is
// loaded (Precompute) or lazily on first touch, guarded per shard so
// concurrent requests for different items never contend on one lock.
//
// An item's features are an opinion.Features: its reviews' opinion and
// aspect columns as flat sparse runs (column offsets, rows, values; a
// review has ~5 non-zeros in 36 rows at z = 12) and its targets π(Rᵢ),
// φ(Rᵢ), filled together when the entry is computed or rebuilt so one
// lookup serves a request everything it needs of the item. Callers must
// treat them as read-only: internal/core's featureCache reads the columns
// (scattering them into private accumulators) and its regression templates
// point at them as the blocks of their designs, without a copy — which is
// what makes sharing across concurrent requests and cached templates safe.
//
// Each entry also holds the item's regression templates (core.Templates),
// handed to core by the same lookup; a replaced entry drops them, and a
// store over its template byte budget drops cold entries' templates.
//
// A Store is bound to one corpus generation at a time. Loading a new corpus
// still replaces the Store wholesale (the replaced one is Released, so it
// leaves the cache gauges), but incremental mutations rebind the
// existing Store to the post-mutation corpus clone (Apply): untouched items
// keep their item pointers, so their feature blocks stay resident, and only
// the touched item's block is rebuilt — reusing the columns of every review
// pointer the mutation did not replace.
package featstore

import (
	"cmp"
	"sync"
	"sync/atomic"

	"comparesets/internal/core"
	"comparesets/internal/faultinject"
	"comparesets/internal/linalg"
	"comparesets/internal/model"
	"comparesets/internal/obs"
	"comparesets/internal/opinion"
	"comparesets/internal/regress"
)

// shardCount is the power-of-two number of lazy-compute shards.
const shardCount = 16

// templateBudget bounds the bytes a store's regression templates own. A
// template owns ~1.43 KB on the evaluation corpora (BenchmarkColdReplay's
// template-bytes over templates); perfbench at all four of its λ values
// builds at most 3,668 templates in one corpus (Toy), ~5.2 MB. 16 MiB
// (~11,700 templates) holds that three times over, so no benchmark
// workload evicts, while many more λ values cannot grow the heap unbounded.
const templateBudget = 16 << 20

// Store caches per-review feature columns and per-item regression
// templates for one corpus.
type Store struct {
	corpus atomic.Pointer[model.Corpus]
	z      int
	shards [shardCount]shard
	m      *obs.CacheMetrics

	// tmu guards ring, hand and tbytes and every write to an entry's
	// templates; lock order is shard, tmu, entry. ring holds the entries
	// with templates in second-chance (CLOCK) order, and tbytes is what
	// their templates own, kept ≤ budget.
	tmu            sync.Mutex
	ring           []*entry
	hand           int
	tbytes, budget int

	// released is set once Release has taken the store out of the gauges;
	// lookups then decline, so no block is counted again.
	released atomic.Bool
}

type shard struct {
	mu    sync.Mutex
	items map[itemKey]*entry
}

// entry is one (scheme, item) feature block: the item's float64 sparse
// review runs and targets, the only form the store keeps, and the item's
// regression templates. it and sch record which item snapshot the
// features were computed from, so a mutation can rebuild the block
// incrementally: the runs of review pointers shared between it.Reviews
// and the successor's are copied, not recomputed.
type entry struct {
	s    *Store
	it   *model.Item
	sch  opinion.Scheme
	feat opinion.Features

	// mu guards tmpl and ref for Template; writers also hold s.tmu, which
	// alone guards the rest. ref marks a hit since the clock hand last
	// passed, so templates no request reused go first. slot is the
	// entry's index in s.ring, −1 off it. A retired (replaced) entry
	// keeps no templates.
	mu      sync.Mutex
	tmpl    map[core.TemplateKey]*regress.Problem
	ref     bool
	tbytes  int
	slot    int
	retired bool
}

// New returns an empty store bound to the corpus. Features are computed
// lazily on first touch; call Precompute to front-load them.
func New(c *model.Corpus) *Store {
	s := &Store{
		z:      c.Aspects.Len(),
		m:      obs.NewCacheMetrics(obs.Default(), "featstore"),
		budget: templateBudget,
	}
	s.corpus.Store(c)
	for i := range s.shards {
		s.shards[i].items = map[itemKey]*entry{}
	}
	return s
}

// itemKey is the (scheme, item) cache key. A comparable struct rather than
// a concatenated string: every lookup on the hot select path builds one, and
// the struct form costs no allocation.
type itemKey struct{ scheme, item string }

func key(schemeName, itemID string) itemKey {
	return itemKey{scheme: schemeName, item: itemID}
}

// shardFor hashes the key fields with inline FNV-1a (over the same byte
// stream the old string key produced, scheme 0x1f item) so the hot path
// never materializes a byte slice.
func (s *Store) shardFor(k itemKey) *shard {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(k.scheme); i++ {
		h = (h ^ uint64(k.scheme[i])) * prime64
	}
	h = (h ^ 0x1f) * prime64
	for i := 0; i < len(k.item); i++ {
		h = (h ^ uint64(k.item[i])) * prime64
	}
	return &s.shards[h&(shardCount-1)]
}

// lookup returns the item's feature block, computing it on first touch and
// incrementally rebuilding it when the resident block belongs to a previous
// snapshot of the same item (a mutation replaced the pointer). Returns nil
// when the item is not current in the bound corpus or a fill fault fired —
// callers then report ok=false and core computes features per request.
func (s *Store) lookup(it *model.Item, sch opinion.Scheme, z int) *entry {
	if z != s.z || s.corpus.Load().Items[it.ID] != it {
		return nil
	}
	k := key(sch.Name(), it.ID)
	sh := s.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s.released.Load() {
		return nil
	}
	e, ok := sh.items[k]
	switch {
	case !ok:
		// An injected fill fault declines the item (ok=false): callers fall
		// back to computing the columns per request, so a failing feature
		// store degrades throughput, never correctness.
		if err := faultinject.Check(faultinject.PointFeatstoreFill); err != nil {
			return nil
		}
		s.m.Misses.Inc()
		e = s.compute(it, sch)
		sh.items[k] = e
	case e.it != it:
		// Stale snapshot: refill only the columns the mutation changed.
		if err := faultinject.Check(faultinject.PointFeatstoreFill); err != nil {
			return nil
		}
		s.m.Misses.Inc()
		s.retire(e)
		e, _, _ = s.rebuild(e, it)
		sh.items[k] = e
	default:
		s.m.Hits.Inc()
	}
	return e
}

// ItemFeatures implements core.FeatureSource: the item's review columns
// and targets under the scheme, computed and memoized on first touch, and
// its template table. ok is false when the item does not belong to the
// bound corpus or z disagrees with the corpus vocabulary — callers then
// fall back to computing features themselves.
func (s *Store) ItemFeatures(it *model.Item, sch opinion.Scheme, z int) (*opinion.Features, core.Templates, bool) {
	e := s.lookup(it, sch, z)
	if e == nil {
		return nil, nil, false
	}
	return &e.feat, e, true
}

// Template implements core.Templates.
func (e *entry) Template(k core.TemplateKey) *regress.Problem {
	e.mu.Lock()
	defer e.mu.Unlock()
	p := e.tmpl[k]
	e.ref = e.ref || p != nil
	return p
}

// Keep implements core.Templates: a template a concurrent builder stored
// first wins (builds are deterministic), and a retired entry stores
// nothing. Over budget, the clock hand then drops whole entries'
// templates: it spares an entry hit since its last pass (clearing the
// mark), and after two full turns spares none, so hits cannot stall it.
func (e *entry) Keep(k core.TemplateKey, p *regress.Problem) *regress.Problem {
	s := e.s
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if prev := e.tmpl[k]; prev != nil || e.retired {
		return cmp.Or(prev, p)
	}
	e.mu.Lock()
	if e.tmpl == nil {
		e.tmpl = map[core.TemplateKey]*regress.Problem{}
	}
	e.tmpl[k] = p
	e.mu.Unlock()
	if e.slot < 0 {
		e.slot = len(s.ring)
		s.ring = append(s.ring, e)
	}
	b := p.Bytes()
	e.tbytes += b
	s.tbytes += b
	s.m.Bytes.Add(float64(b))
	for turns := 2 * len(s.ring); s.tbytes > s.budget && len(s.ring) > 0; turns-- {
		s.hand %= len(s.ring)
		v := s.ring[s.hand]
		v.mu.Lock()
		spare := v.ref && turns > 0
		v.ref = false
		v.mu.Unlock()
		if spare {
			s.hand++
		} else {
			s.m.Evictions.Add(s.drop(v))
		}
	}
	return p
}

// drop empties e's template table and takes e off the ring (the last
// entry takes its slot), returning how many templates it held. Caller
// holds s.tmu.
func (s *Store) drop(e *entry) int {
	e.mu.Lock()
	n := len(e.tmpl)
	e.tmpl = nil
	e.mu.Unlock()
	if i := e.slot; i >= 0 {
		last := len(s.ring) - 1
		s.ring[i] = s.ring[last]
		s.ring[i].slot = i
		s.ring[last] = nil
		s.ring = s.ring[:last]
		e.slot = -1
	}
	s.tbytes -= e.tbytes
	s.m.Bytes.Add(-float64(e.tbytes))
	e.tbytes = 0
	return n
}

// retire takes a replaced entry's feature bytes and templates out of the
// accounting and marks it to keep no later build, returning how many
// templates it held.
func (s *Store) retire(old *entry) int {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	old.retired = true
	s.m.Bytes.Add(-float64(old.feat.Bytes()))
	return s.drop(old)
}

// Release takes a store that a corpus reload replaced out of the
// process-wide featstore gauges: every resident block is retired, which
// uncounts its bytes and templates, and dropped from the entry count.
// Requests still holding the store afterwards get ok=false and compute
// their features per request.
func (s *Store) Release() {
	s.released.Store(true)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, e := range sh.items {
			s.retire(e)
		}
		s.m.Entries.Add(-float64(len(sh.items)))
		clear(sh.items)
		sh.mu.Unlock()
	}
}

// Templates returns the number of regression templates the store holds
// and the bytes they own (regress.Problem.Bytes), not counting the review
// columns their blocks point at.
func (s *Store) Templates() (n, bytes int) {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	for _, e := range s.ring {
		n += len(e.tmpl)
	}
	return n, s.tbytes
}

// newEntry returns an entry, with no templates yet, for the features of
// item snapshot it under sch, and counts their bytes.
func (s *Store) newEntry(it *model.Item, sch opinion.Scheme, feat opinion.Features) *entry {
	s.m.Bytes.Add(float64(feat.Bytes()))
	return &entry{s: s, it: it, sch: sch, feat: feat, slot: -1}
}

// compute builds one item's feature block.
func (s *Store) compute(it *model.Item, sch opinion.Scheme) *entry {
	span := obs.StartStage(obs.StagePrecompute)
	defer span.Stop()
	s.m.Entries.Add(1)
	return s.newEntry(it, sch, opinion.NewFeatures(sch, it.Reviews, s.z))
}

// rebuild produces the feature block of a successor item snapshot from its
// predecessor's block: the runs of columns whose review pointer survived
// the mutation are copied out of the old block, only genuinely new or
// replaced reviews go through the scheme, and the targets are recomputed
// over the new review list. The old entry's features stay intact —
// in-flight requests and template shares holding the old item keep
// reading consistent columns; the caller retires it. Returns the new
// entry plus how many columns were computed fresh vs reused.
func (s *Store) rebuild(old *entry, it *model.Item) (e *entry, computed, reused int) {
	span := obs.StartStage(obs.StagePrecompute)
	defer span.Stop()
	sch := old.sch
	// Index the predecessor's columns by review pointer.
	pos := make(map[*model.Review]int, len(old.it.Reviews))
	for j, r := range old.it.Reviews {
		pos[r] = j
	}
	// src[j] is review j's column in the old block, or −1−k for the k-th
	// review computed fresh.
	n := len(it.Reviews)
	src := make([]int, n)
	var added []*model.Review
	var nnzOp, nnzAsp int
	for j, r := range it.Reviews {
		k, ok := pos[r]
		if !ok {
			src[j] = -1 - len(added)
			added = append(added, r)
			continue
		}
		src[j] = k
		nnzOp += int(old.feat.Op.Off[k+1] - old.feat.Op.Off[k])
		nnzAsp += int(old.feat.Asp.Off[k+1] - old.feat.Asp.Off[k])
	}
	freshOp, freshAsp := opinion.Columns(sch, added, s.z)
	nnzOp += len(freshOp.Idx)
	nnzAsp += len(freshAsp.Idx)
	op := linalg.NewSparseColumns(freshOp.Rows, n, nnzOp)
	asp := linalg.NewSparseColumns(s.z, n, nnzAsp)
	for _, k := range src {
		fromOp, fromAsp := old.feat.Op, old.feat.Asp
		if k < 0 {
			k, fromOp, fromAsp = -1-k, freshOp, freshAsp
		}
		op.AppendSparse(fromOp.Col(k))
		asp.AppendSparse(fromAsp.Col(k))
	}
	op.ShareOnes()
	asp.ShareOnes()
	e = s.newEntry(it, sch, opinion.Features{
		Op:  op,
		Asp: asp,
		Tau: sch.Vector(it.Reviews, s.z),
		Phi: opinion.AspectVector(it.Reviews, s.z),
	})
	return e, len(added), n - len(added)
}

// Apply rebinds the store to the post-mutation corpus and eagerly refills
// the touched item's resident feature blocks (one per scheme seen so far),
// reusing every column whose review pointer the mutation preserved. Blocks
// of untouched items are untouched — their item pointers still match the
// new corpus. Returns the number of feature columns computed fresh and the
// number reused, and the number of regression templates the replaced
// blocks held, for the mutation receipt.
func (s *Store) Apply(c *model.Corpus, m *model.Mutation) (computed, reused, dropped int) {
	s.corpus.Store(c)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, e := range sh.items {
			if k.item != m.ItemID || e.it == m.New {
				continue
			}
			dropped += s.retire(e)
			ne, nc, nr := s.rebuild(e, m.New)
			sh.items[k] = ne
			computed += nc
			reused += nr
		}
		sh.mu.Unlock()
	}
	return computed, reused, dropped
}

// Precompute eagerly builds the feature blocks of every corpus item under
// the scheme, so the first request after a corpus load pays no lazy
// compute. Safe to call concurrently with ItemFeatures.
func (s *Store) Precompute(sch opinion.Scheme) {
	c := s.corpus.Load()
	for _, id := range c.ItemIDs() {
		s.lookup(c.Items[id], sch, s.z)
	}
}

// Len returns the number of resident (scheme, item) feature blocks.
func (s *Store) Len() int {
	var n int
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}
