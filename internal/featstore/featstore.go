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
// A Store is bound to one corpus generation at a time. Loading a new corpus
// still replaces the Store wholesale, but incremental mutations rebind the
// existing Store to the post-mutation corpus clone (Apply): untouched items
// keep their item pointers, so their feature blocks stay resident, and only
// the touched item's block is rebuilt — reusing the columns of every review
// pointer the mutation did not replace.
package featstore

import (
	"sync"
	"sync/atomic"

	"comparesets/internal/faultinject"
	"comparesets/internal/linalg"
	"comparesets/internal/model"
	"comparesets/internal/obs"
	"comparesets/internal/opinion"
)

// shardCount is the power-of-two number of lazy-compute shards.
const shardCount = 16

// Store caches per-review feature columns for one corpus.
type Store struct {
	corpus atomic.Pointer[model.Corpus]
	z      int
	shards [shardCount]shard
	m      *obs.CacheMetrics
}

type shard struct {
	mu    sync.Mutex
	items map[itemKey]*entry
}

// entry is one (scheme, item) feature block. The float32 companions are
// narrowed lazily on the first ItemColumns32 touch into two dense compact
// slabs. it and sch record which item snapshot the features were computed
// from, so a mutation can rebuild the block incrementally: the runs of
// review pointers shared between it.Reviews and the successor's are
// copied, not recomputed.
type entry struct {
	it          *model.Item
	sch         opinion.Scheme
	feat        opinion.Features
	op32, asp32 []linalg.Vector32
}

// New returns an empty store bound to the corpus. Features are computed
// lazily on first touch; call Precompute to front-load them.
func New(c *model.Corpus) *Store {
	s := &Store{
		z: c.Aspects.Len(),
		m: obs.NewCacheMetrics(obs.Default(), "featstore"),
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
		e, _, _ = s.rebuild(e, it)
		sh.items[k] = e
	default:
		s.m.Hits.Inc()
	}
	return e
}

// ItemFeatures implements core.FeatureSource: the item's review columns
// and targets under the scheme, computed and memoized on first touch. ok
// is false when the item does not belong to the bound corpus or z
// disagrees with the corpus vocabulary — callers then fall back to
// computing features themselves.
func (s *Store) ItemFeatures(it *model.Item, sch opinion.Scheme, z int) (*opinion.Features, bool) {
	e := s.lookup(it, sch, z)
	if e == nil {
		return nil, false
	}
	return &e.feat, true
}

// ItemColumns32 implements core.FeatureSource32: the item's columns as
// dense float32 vectors, narrowed from the sparse runs once per (scheme,
// item) and memoized, so repeated compact-mode requests pay no
// conversion. The same read-only aliasing contract applies.
func (s *Store) ItemColumns32(it *model.Item, sch opinion.Scheme, z int) (op, asp []linalg.Vector32, ok bool) {
	e := s.lookup(it, sch, z)
	if e == nil {
		return nil, nil, false
	}
	k := key(sch.Name(), it.ID)
	sh := s.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e.op32 == nil {
		e.op32 = narrow(e.feat.Op)
		e.asp32 = narrow(e.feat.Asp)
		s.m.Bytes.Add(float64(4 * (e.feat.Op.Rows + e.feat.Asp.Rows) * len(e.op32)))
	}
	return e.op32, e.asp32, true
}

// narrow expands sparse columns into dense float32 vectors over one slab.
func narrow(c *linalg.SparseColumns) []linalg.Vector32 {
	n := c.Cols()
	slab := make([]float32, n*c.Rows)
	out := make([]linalg.Vector32, n)
	for j := range out {
		out[j] = linalg.Vector32(slab[j*c.Rows : (j+1)*c.Rows])
		idx, val := c.Col(j)
		for t, i := range idx {
			out[j][i] = float32(val[t])
		}
	}
	return out
}

// compute builds one item's feature block.
func (s *Store) compute(it *model.Item, sch opinion.Scheme) *entry {
	span := obs.StartStage(obs.StagePrecompute)
	defer span.Stop()
	e := &entry{it: it, sch: sch, feat: opinion.NewFeatures(sch, it.Reviews, s.z)}
	s.m.Entries.Add(1)
	s.m.Bytes.Add(float64(e.feat.Bytes()))
	return e
}

// rebuild produces the feature block of a successor item snapshot from its
// predecessor's block: the runs of columns whose review pointer survived
// the mutation are copied out of the old block, only genuinely new or
// replaced reviews go through the scheme, and the targets are recomputed
// over the new review list. The old entry stays intact — in-flight
// requests and cached templates holding the old item keep reading
// consistent columns. Returns the new entry plus how many columns were
// computed fresh vs reused.
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
	e = &entry{it: it, sch: sch, feat: opinion.Features{
		Op:  op,
		Asp: asp,
		Tau: sch.Vector(it.Reviews, s.z),
		Phi: opinion.AspectVector(it.Reviews, s.z),
	}}
	s.m.Bytes.Add(float64(e.feat.Bytes()))
	return e, len(added), n - len(added)
}

// Apply rebinds the store to the post-mutation corpus and eagerly refills
// the touched item's resident feature blocks (one per scheme seen so far),
// reusing every column whose review pointer the mutation preserved. Blocks
// of untouched items are untouched — their item pointers still match the
// new corpus. Returns the number of feature columns computed fresh and the
// number reused, for the mutation receipt.
func (s *Store) Apply(c *model.Corpus, m *model.Mutation) (computed, reused int) {
	s.corpus.Store(c)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, e := range sh.items {
			if k.item != m.ItemID || e.it == m.New {
				continue
			}
			ne, nc, nr := s.rebuild(e, m.New)
			sh.items[k] = ne
			computed += nc
			reused += nr
		}
		sh.mu.Unlock()
	}
	return computed, reused
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

// Warm touches the feature blocks of the given items under the scheme so a
// subsequent run finds every block resident. The batch executor uses it as
// the group's single feature pass: one warm sweep over the union of a
// group's items, then every member request hits warm blocks. compact
// selects the float32 companions as well.
func (s *Store) Warm(items []*model.Item, sch opinion.Scheme, compact bool) {
	for _, it := range items {
		if compact {
			s.ItemColumns32(it, sch, s.z)
		} else {
			s.lookup(it, sch, s.z)
		}
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
