// The router-tier edge response cache.
//
// Every byte a worker sends for a corpus-referenced select is a pure
// function of the request's semantic fields and the reviews of the items in
// the request's instance (the target plus its also-bought comparatives) —
// and the router already learns every state change, because it reconciles
// the MutationReceipt of each write it fans out. That makes the routing
// tier a legal cache site: a warm read is answered at the edge in
// microseconds, byte-identical to the proxied response it memoized, without
// spending an upstream exchange or a retry token.
//
// Keying mirrors the worker's own servecache discipline (instanceEpoch):
// entries are keyed by the canonical select-request key (selectreq.Key,
// the one both tiers use) and tagged with a per-instance state token, an
// FNV hash of the reconciled epoch fingerprint, a conservative-flush
// counter, and the mutation generation of each instance member that has
// one. The worker sends the Comparesets-Instance header only on canonical
// answers, so the header is the edge's one cacheability rule: an answer
// without it (degraded, shed, or from an older worker) is served but never
// memoized. The edge learns an instance's members from that header and
// memoizes them per (target, max_comparative); a mutation cannot change
// membership, because it can only touch reviews of items that already
// exist. A receipt for item X therefore changes the tag of exactly the
// entries whose instance contains X: invalidation is a tag change, stale
// entries stop answering instantly and are replaced by the next fill, and
// selections for every other target stay warm. Anything that muddies the
// router's view of a category (an unparseable receipt, a multi-item
// mutation, a failed fan-out that may have partially applied, a replica
// draining from or rejoining reads, a new corpus fingerprint) bumps the
// flush counter and drops the membership memo: conservative,
// category-wide, and cheap.
//
// A miss is a plain forward; the edge does not coalesce. Identical
// concurrent misses meet in the worker's select flight group, the one
// coalescing layer of the serving path. Every read snapshots the
// category's write sequence, and its answer is memoized only if no flush
// and no receipt for any member landed after that snapshot, so a fill can
// never carry bytes that predate a write it straddled.
//
// Requests the router cannot prove cacheable — inline instances, unknown
// request fields added by newer workers — bypass the edge entirely and
// take the plain proxied path.
package cluster

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"

	"comparesets/internal/obs"
	"comparesets/internal/selectreq"
	"comparesets/internal/servecache"
)

// DefaultEdgeCacheBytes is the edge response cache budget when
// RouterOptions leaves EdgeCacheBytes unset.
const DefaultEdgeCacheBytes int64 = 64 << 20

// maxEdgeInstances bounds each category's membership memo; on overflow the
// memo resets. A reset keeps eviction bookkeeping off the read path and
// costs little: the memo is a pure accelerator, and a forgotten membership
// is relearned from the instance's next fill.
const maxEdgeInstances = 4096

// edgeSelect is a cacheable select body, decoded once: its canonical key
// plus the fields the read path routes and scopes it by.
type edgeSelect struct {
	key            string
	category       string
	target         string
	maxComparative int
	timeoutMS      int
}

// edgeSelectKey strict-decodes a select body and returns its canonical key
// with the worker's defaults applied. The decoder runs with
// DisallowUnknownFields: a request carrying a field this router does not
// know could change the response without changing the key. ok is false for
// bodies the edge must not cache, which are forwarded uncached: inline
// instances, missing corpus references, unknown fields, or bodies that are
// not exactly one JSON value.
func edgeSelectKey(body []byte) (sel edgeSelect, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req selectreq.Request
	if err := dec.Decode(&req); err != nil {
		return edgeSelect{}, false
	}
	if _, err := dec.Token(); err != io.EOF {
		return edgeSelect{}, false
	}
	if req.Category == "" || req.Target == "" || len(req.Items) > 0 || len(req.Aspects) > 0 {
		return edgeSelect{}, false
	}
	selectreq.ApplyDefaults(&req)
	return edgeSelect{
		key:            selectreq.Key(&req),
		category:       req.Category,
		target:         req.Target,
		maxComparative: req.MaxComparative,
		timeoutMS:      req.TimeoutMS,
	}, true
}

// edgeItemGen is one item's reconciled mutation generation and the write
// sequence number of the receipt that set it.
type edgeItemGen struct {
	gen, seq uint64
}

// edgeInstanceKey identifies a corpus-referenced instance: the worker
// resolves membership from exactly these two request fields.
type edgeInstanceKey struct {
	target         string
	maxComparative int
}

// edgeInstance is one memoized membership and its state token, valid while
// the category's write sequence still equals tokenSeq.
type edgeInstance struct {
	ids      []string
	token    string
	tokenSeq uint64
}

// edgeCategoryState is the router's reconciled view of one category's cache
// lineage, fed exclusively by quorum mutation receipts, flush events, and
// the instance headers of fills.
type edgeCategoryState struct {
	// fp is the corpus-fingerprint suffix of the category's epoch token as
	// last reported by a quorum receipt ("" until the first write).
	fp string
	// gens is the per-item mutation generation vector of the lineage.
	gens map[string]edgeItemGen
	// flushes counts conservative category-wide invalidations.
	flushes uint64
	// seq counts the category's writes: every receipt and every flush.
	seq uint64
	// flushSeq is seq at the last flush or fingerprint change.
	flushSeq uint64
	// instances memoizes membership per (target, max_comparative).
	instances map[edgeInstanceKey]*edgeInstance
}

// token returns the instance's state token: FNV-64a over the reconciled
// fingerprint, the flush counter, and (id, generation) of each member with
// a generation, in instance order — the worker's instanceEpoch rule. It is
// recomputed at most once per write.
func (st *edgeCategoryState) token(in *edgeInstance) string {
	if in.token != "" && in.tokenSeq == st.seq {
		return in.token
	}
	h := fnv.New64a()
	h.Write([]byte(st.fp))
	var buf [8]byte
	putUint64(buf[:], st.flushes)
	h.Write(buf[:])
	for _, id := range in.ids {
		if g := st.gens[id].gen; g > 0 {
			h.Write([]byte(id))
			putUint64(buf[:], g)
			h.Write(buf[:])
		}
	}
	in.token = strconv.FormatUint(h.Sum64(), 16)
	in.tokenSeq = st.seq
	return in.token
}

// newLineage starts over after a flush or fingerprint change: the flush
// counter moves every token, and memoized memberships are forgotten.
func (st *edgeCategoryState) newLineage() {
	st.flushes++
	st.flushSeq = st.seq
	st.instances = map[edgeInstanceKey]*edgeInstance{}
}

func putUint64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

// edgeCache is the router's response cache and its reconciled view of each
// category's write lineage.
type edgeCache struct {
	cache *servecache.Cache
	// misses counts reads whose membership is unknown, which never reach a
	// cache lookup.
	misses *obs.Counter

	mu   sync.Mutex
	cats map[string]*edgeCategoryState

	invalidations func(scope string)
}

// newEdgeCache builds the edge tier with the given byte budget, recording
// hit/miss/eviction counters into reg under the "router_edge" cache label.
func newEdgeCache(budget int64, reg *obs.Registry) *edgeCache {
	if budget <= 0 {
		budget = DefaultEdgeCacheBytes
	}
	m := obs.NewCacheMetrics(reg, "router_edge")
	e := &edgeCache{
		cache:  servecache.New(budget, 0, m),
		misses: m.Misses,
		cats:   map[string]*edgeCategoryState{},
	}
	e.invalidations = func(scope string) {
		reg.Counter("comparesets_router_edge_invalidations_total",
			"Edge-cache invalidations by scope: receipt (exact re-key) or flush (conservative category drop).",
			obs.Labels{"scope": scope}).Inc()
	}
	return e
}

// lookup snapshots the edge state for one read: its instance's state
// token, "" while the instance membership is unknown, and the category's
// write sequence, which decides whether the read's answer may later be
// filled.
func (e *edgeCache) lookup(sel *edgeSelect) (token string, seq uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if st := e.cats[sel.category]; st != nil {
		seq = st.seq
		if in := st.instances[edgeInstanceKey{sel.target, sel.maxComparative}]; in != nil {
			token = st.token(in)
		}
	}
	return token, seq
}

// get answers a read from the cache when its instance membership is known
// and the key's entry carries the current token; an unknown membership
// counts as a miss. seq is the read's snapshot for fill.
func (e *edgeCache) get(sel *edgeSelect) (payload []byte, seq uint64, ok bool) {
	token, seq := e.lookup(sel)
	if token == "" {
		e.misses.Inc()
		return nil, seq, false
	}
	payload, ok = e.cache.Get(sel.key, token)
	return payload, seq, ok
}

// fill memoizes a canonical 200 answer of a read that took its snapshot at
// write sequence seq, learning the instance's membership from the answer's
// instance header. An answer without the header is not memoized. Neither
// is one that a flush or fingerprint change landed after (its membership
// and bytes may belong to an older lineage), nor one that a receipt for
// any member landed after (its bytes may predate that write).
func (e *edgeCache) fill(sel *edgeSelect, seq uint64, instance string, payload []byte) {
	ids, ok := selectreq.ParseInstance(instance)
	if !ok {
		return
	}
	e.mu.Lock()
	st := e.state(sel.category)
	if st.flushSeq > seq {
		e.mu.Unlock()
		return
	}
	ik := edgeInstanceKey{sel.target, sel.maxComparative}
	in := st.instances[ik]
	if in == nil || !slices.Equal(in.ids, ids) {
		if len(st.instances) >= maxEdgeInstances {
			st.instances = map[edgeInstanceKey]*edgeInstance{}
		}
		in = &edgeInstance{ids: ids}
		st.instances[ik] = in
	}
	for _, id := range ids {
		if st.gens[id].seq > seq {
			e.mu.Unlock()
			return
		}
	}
	token := st.token(in)
	e.mu.Unlock()
	e.cache.Put(sel.key, token, payload)
}

// state returns the category's state slot, creating it if needed. Caller
// holds e.mu.
func (e *edgeCache) state(category string) *edgeCategoryState {
	st := e.cats[category]
	if st == nil {
		st = &edgeCategoryState{
			gens:      map[string]edgeItemGen{},
			instances: map[edgeInstanceKey]*edgeInstance{},
		}
		e.cats[category] = st
	}
	return st
}

// edgeReceipt is the slice of a MutationReceipt the edge consumes.
type edgeReceipt struct {
	Epoch         string   `json:"epoch"`
	Generation    uint64   `json:"generation"`
	Item          string   `json:"item"`
	AffectedItems []string `json:"affected_items"`
}

// applyReceipt advances the category's state from a quorum-confirmed
// mutation receipt: the touched item's generation is recorded, which
// re-keys exactly the instances containing it. A changed epoch fingerprint
// means the workers reloaded the corpus, so the lineage starts over: the
// generation vector and the membership memo are dropped and every token
// moves. Receipts the edge cannot interpret exactly — unparseable, or
// touching several items with a single generation — degrade to a
// conservative flush.
func (e *edgeCache) applyReceipt(category string, receipt []byte) {
	var rec edgeReceipt
	if err := json.Unmarshal(receipt, &rec); err != nil {
		e.flush(category)
		return
	}
	item := rec.Item
	if n := len(rec.AffectedItems); n == 1 {
		item = rec.AffectedItems[0]
	} else if n > 1 {
		e.flush(category)
		return
	}
	if item == "" || rec.Generation == 0 {
		e.flush(category)
		return
	}
	fp := rec.Epoch
	if i := strings.LastIndexByte(rec.Epoch, '.'); i >= 0 {
		fp = rec.Epoch[i+1:]
	}
	e.mu.Lock()
	st := e.state(category)
	st.seq++
	if st.fp != fp {
		st.fp = fp
		st.gens = map[string]edgeItemGen{}
		st.newLineage()
	}
	st.gens[item] = edgeItemGen{gen: rec.Generation, seq: st.seq}
	e.mu.Unlock()
	e.invalidations("receipt")
}

// flush conservatively invalidates the category's whole edge lineage: the
// flush counter is folded into every token, so no existing entry of the
// category answers a lookup again.
func (e *edgeCache) flush(category string) {
	e.mu.Lock()
	st := e.state(category)
	st.seq++
	st.newLineage()
	e.mu.Unlock()
	e.invalidations("flush")
}
