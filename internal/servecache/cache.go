// Package servecache is the serving-path result cache: a sharded,
// byte-budgeted LRU over immutable []byte payloads, plus a request
// coalescer (FlightGroup) that collapses concurrent identical computations
// into one.
//
// The cache is built for a hot-key read pattern — comparison endpoints are
// dominated by a small set of hot (target, parameters) pairs — so the
// design optimizes the hit path: the key is hashed once, exactly one
// shard mutex is taken, and the entry is spliced to the front of that
// shard's intrusive doubly-linked LRU list. Shard count is a power of two
// so shard selection is a mask, and the byte budget is split evenly across
// shards so eviction never takes a global lock.
//
// Each key holds one entry, stamped with a tag: the caller's version of
// the state the payload was computed from (the worker's instance epoch, the
// router edge's state token). Get answers only when the stored tag equals
// the current one, so a state change is a tag change and never a scan. The
// superseded entry stays reachable through Stale until a refill replaces
// it, which is what stale-while-error serving reads; it holds budget only
// until then.
//
// Values are stored and returned as []byte. Callers hand in payloads they
// will never mutate (the service layer stores fully marshaled JSON
// responses) and must treat returned slices the same way; that convention
// is what makes cached responses deep-immutable without defensive copies.
package servecache

import (
	"hash/fnv"
	"sync"

	"comparesets/internal/obs"
)

// entryOverhead approximates the per-entry bookkeeping bytes (map slot,
// entry struct, pointers) charged against the budget in addition to the
// key, tag and payload bytes.
const entryOverhead = 128

// Cache is a sharded byte-budgeted LRU. The zero value is not usable; use
// New.
type Cache struct {
	shards []cacheShard
	mask   uint64
	m      *obs.CacheMetrics
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*entry
	// head is the most recently used entry, tail the eviction candidate.
	head, tail *entry
	bytes      int64
	budget     int64
}

// entry is an intrusive LRU node.
type entry struct {
	key, tag   string
	val        []byte
	prev, next *entry
}

func (e *entry) size() int64 { return int64(len(e.key) + len(e.tag) + len(e.val) + entryOverhead) }

// New returns a cache with the given total byte budget spread over
// shardCount shards (rounded up to a power of two; ≤ 0 picks 16). Metrics
// may be nil.
func New(totalBytes int64, shardCount int, m *obs.CacheMetrics) *Cache {
	if shardCount <= 0 {
		shardCount = 16
	}
	n := 1
	for n < shardCount {
		n <<= 1
	}
	if totalBytes < int64(n) {
		totalBytes = int64(n) // degenerate budgets still give ≥ 1 byte/shard
	}
	c := &Cache{shards: make([]cacheShard, n), mask: uint64(n - 1), m: m}
	for i := range c.shards {
		c.shards[i].entries = map[string]*entry{}
		c.shards[i].budget = totalBytes / int64(n)
	}
	return c
}

func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

func (c *Cache) shardFor(key string) *cacheShard {
	return &c.shards[hashKey(key)&c.mask]
}

// Get returns the payload cached under key if it was stored with tag,
// marking it most recently used. An entry stored under another tag is a
// miss. The returned slice is shared — callers must not mutate it.
func (c *Cache) Get(key, tag string) ([]byte, bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	ok = ok && e.tag == tag
	if ok {
		sh.moveToFront(e)
	}
	sh.mu.Unlock()
	if c.m != nil {
		if ok {
			c.m.Hits.Inc()
		} else {
			c.m.Misses.Inc()
		}
	}
	if !ok {
		return nil, false
	}
	return e.val, true
}

// Stale returns the payload cached under key whatever its tag: the last
// good answer for a request shape, possibly computed from an older state.
// It is the stale-while-error read, so it moves no hit or miss counter and
// leaves the LRU order alone.
func (c *Cache) Stale(key string) ([]byte, bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	sh.mu.Unlock()
	if !ok {
		return nil, false
	}
	return e.val, true
}

// Put stores val under key with tag, replacing the key's entry whatever
// its tag, and evicts least-recently-used entries until the shard fits its
// budget. val must not be mutated by the caller afterwards. Payloads larger
// than a whole shard budget are not cached.
func (c *Cache) Put(key, tag string, val []byte) {
	sh := c.shardFor(key)
	e := &entry{key: key, tag: tag, val: val}
	if e.size() > sh.budget {
		return
	}
	dBytes, dEntries, evicted := e.size(), 1, 0
	sh.mu.Lock()
	if old, ok := sh.entries[key]; ok {
		sh.remove(old)
		dBytes -= old.size()
		dEntries--
	}
	sh.entries[key] = e
	sh.pushFront(e)
	sh.bytes += e.size()
	for sh.bytes > sh.budget && sh.tail != nil && sh.tail != e {
		victim := sh.tail
		sh.remove(victim)
		dBytes -= victim.size()
		dEntries--
		evicted++
	}
	sh.mu.Unlock()
	if c.m != nil {
		c.m.Evictions.Add(evicted)
		c.m.Bytes.Add(float64(dBytes))
		c.m.Entries.Add(float64(dEntries))
	}
}

func (c *Cache) stats() (bytes int64, entries int) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		bytes += sh.bytes
		entries += len(sh.entries)
		sh.mu.Unlock()
	}
	return bytes, entries
}

// Bytes returns the current resident payload bytes (including overhead).
func (c *Cache) Bytes() int64 { b, _ := c.stats(); return b }

// Len returns the current number of resident entries.
func (c *Cache) Len() int { _, n := c.stats(); return n }

// Purge drops every entry, one shard at a time.
func (c *Cache) Purge() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		bytes, entries := sh.bytes, len(sh.entries)
		sh.entries = map[string]*entry{}
		sh.head, sh.tail = nil, nil
		sh.bytes = 0
		sh.mu.Unlock()
		if c.m != nil {
			c.m.Bytes.Add(-float64(bytes))
			c.m.Entries.Add(-float64(entries))
		}
	}
}

// pushFront inserts a detached entry at the head. Caller holds sh.mu.
func (sh *cacheShard) pushFront(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// remove drops an in-list entry from the shard. Caller holds sh.mu.
func (sh *cacheShard) remove(e *entry) {
	sh.unlink(e)
	delete(sh.entries, e.key)
	sh.bytes -= e.size()
}

// unlink removes the entry from the list. Caller holds sh.mu.
func (sh *cacheShard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront splices an in-list entry to the head. Caller holds sh.mu.
func (sh *cacheShard) moveToFront(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}
