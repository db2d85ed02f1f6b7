package servecache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"comparesets/internal/obs"
)

func TestGetPutBasics(t *testing.T) {
	c := New(1<<20, 4, nil)
	if _, ok := c.Get("k", "t"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("k", "t", []byte("v1"))
	if v, ok := c.Get("k", "t"); !ok || string(v) != "v1" {
		t.Fatalf("got %q %v", v, ok)
	}
	// Replacement.
	c.Put("k", "t", []byte("v2"))
	if v, _ := c.Get("k", "t"); string(v) != "v2" {
		t.Fatalf("after replace: %q", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	c.Purge()
	if _, ok := c.Get("k", "t"); ok || c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("purge left entries behind")
	}
}

func TestByteBudgetEvictionIsLRU(t *testing.T) {
	// Single shard so the LRU order is fully observable.
	m := obs.NewCacheMetrics(obs.NewRegistry(), "test")
	c := New(int64(3*(len("a")+len("t")+len("aaaa")+entryOverhead)), 1, m)
	c.Put("a", "t", []byte("aaaa"))
	c.Put("b", "t", []byte("bbbb"))
	c.Put("c", "t", []byte("cccc"))
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	// Touch "a" so "b" is now least recently used, then overflow.
	c.Get("a", "t")
	c.Put("d", "t", []byte("dddd"))
	if _, ok := c.Get("b", "t"); ok {
		t.Error("LRU entry b survived eviction")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k, "t"); !ok {
			t.Errorf("entry %s evicted unexpectedly", k)
		}
	}
	if m.Evictions.Value() == 0 {
		t.Error("eviction counter not incremented")
	}
}

func TestOversizedPayloadNotCached(t *testing.T) {
	c := New(256, 1, nil)
	c.Put("big", "t", make([]byte, 4096))
	if _, ok := c.Get("big", "t"); ok {
		t.Error("payload larger than the shard budget was cached")
	}
}

func TestShardDistribution(t *testing.T) {
	c := New(1<<22, 8, nil)
	for i := 0; i < 512; i++ {
		c.Put(fmt.Sprintf("key-%d", i), "t", []byte("x"))
	}
	if c.Len() != 512 {
		t.Fatalf("Len = %d, want 512", c.Len())
	}
	occupied := 0
	for i := range c.shards {
		if len(c.shards[i].entries) > 0 {
			occupied++
		}
	}
	if occupied < 4 {
		t.Errorf("only %d/8 shards occupied — hash is not spreading keys", occupied)
	}
}

// TestConcurrentStress hammers get/put/purge across shards; run under
// -race this is the cache's data-race certificate.
func TestConcurrentStress(t *testing.T) {
	m := obs.NewCacheMetrics(obs.NewRegistry(), "stress")
	c := New(1<<16, 8, m)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(64))
				switch rng.Intn(10) {
				case 0:
					c.Purge()
				case 1, 2, 3:
					c.Put(key, "t", []byte(key))
				case 4:
					if v, ok := c.Stale(key); ok && string(v) != key {
						t.Errorf("corrupt stale read: key %s val %s", key, v)
						return
					}
				default:
					if v, ok := c.Get(key, "t"); ok && string(v) != key {
						t.Errorf("corrupt read: key %s val %s", key, v)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	// Invariants after the storm: accounted bytes match entry count
	// within per-entry bounds.
	bytes, entries := c.stats()
	if entries == 0 && bytes != 0 {
		t.Errorf("bytes = %d with 0 entries", bytes)
	}
	if entries > 0 && bytes < int64(entries)*entryOverhead {
		t.Errorf("bytes = %d too small for %d entries", bytes, entries)
	}
	if m.Bytes.Value() != float64(bytes) || m.Entries.Value() != float64(entries) {
		t.Errorf("gauges = %v bytes / %v entries, resident %d / %d",
			m.Bytes.Value(), m.Entries.Value(), bytes, entries)
	}
}

// TestTagsSeparateFreshFromStale: a Get answers only under the tag the
// entry was stored with; a fill under an older tag is never a fresh hit
// under the newer one, while Stale returns the entry whatever its tag and
// moves no hit or miss counter.
func TestTagsSeparateFreshFromStale(t *testing.T) {
	m := obs.NewCacheMetrics(obs.NewRegistry(), "test")
	c := New(1<<20, 4, m)
	c.Put("k", "epoch-1", []byte("old"))
	if _, ok := c.Get("k", "epoch-2"); ok {
		t.Fatal("entry stored under epoch-1 hit under epoch-2")
	}
	if v, ok := c.Get("k", "epoch-1"); !ok || string(v) != "old" {
		t.Fatalf("Get under the stored tag = %q %v", v, ok)
	}
	hits, misses := m.Hits.Value(), m.Misses.Value()
	if v, ok := c.Stale("k"); !ok || string(v) != "old" {
		t.Fatalf("Stale = %q %v, want the epoch-1 payload", v, ok)
	}
	if _, ok := c.Stale("absent"); ok {
		t.Fatal("Stale invented an entry")
	}
	if m.Hits.Value() != hits || m.Misses.Value() != misses {
		t.Errorf("Stale moved the counters: hits %d -> %d, misses %d -> %d",
			hits, m.Hits.Value(), misses, m.Misses.Value())
	}

	// A refill under the newer tag replaces the entry: one entry, one
	// payload's bytes, and the older tag no longer hits.
	c.Put("k", "epoch-2", []byte("new"))
	if v, ok := c.Get("k", "epoch-2"); !ok || string(v) != "new" {
		t.Fatalf("Get after refill = %q %v", v, ok)
	}
	if _, ok := c.Get("k", "epoch-1"); ok {
		t.Error("superseded tag still hits after the refill")
	}
	if n, b := c.Len(), c.Bytes(); n != 1 || b != int64(len("k")+len("epoch-2")+len("new")+entryOverhead) {
		t.Errorf("after refill: %d entries, %d bytes; the superseded entry still holds budget", n, b)
	}
	// An older fill landing last re-tags the entry back; it still never
	// answers a Get under the newer tag.
	c.Put("k", "epoch-1", []byte("old"))
	if _, ok := c.Get("k", "epoch-2"); ok {
		t.Error("late epoch-1 fill served as an epoch-2 hit")
	}
}

// TestGaugesTrackFootprint: the bytes and entries gauges are maintained by
// per-operation deltas; after every step of a mixed sequence of inserts,
// replacements, evictions and purges they equal the resident footprint.
func TestGaugesTrackFootprint(t *testing.T) {
	size := func(key, tag, val string) int64 { return int64(len(key) + len(tag) + len(val) + entryOverhead) }
	type op struct {
		name          string
		purge         bool
		key, tag, val string
	}
	for _, tc := range []struct {
		name   string
		budget int64
		shards int
		ops    []op
	}{
		{"inserts", 1 << 20, 4, []op{
			{name: "a", key: "a", tag: "1", val: "aaaa"},
			{name: "b", key: "b", tag: "1", val: "bb"},
			{name: "c", key: "c", tag: "1", val: ""},
		}},
		{"replacements", 1 << 20, 4, []op{
			{name: "a", key: "a", tag: "1", val: "aaaa"},
			{name: "a same tag", key: "a", tag: "1", val: "a"},
			{name: "a new tag", key: "a", tag: "22", val: "aaaaaaaa"},
			{name: "b", key: "b", tag: "1", val: "bb"},
			{name: "b new tag", key: "b", tag: "333", val: ""},
		}},
		// One shard holding two entries: the third insert evicts.
		{"evictions", 2 * size("a", "1", "aaaa"), 1, []op{
			{name: "a", key: "a", tag: "1", val: "aaaa"},
			{name: "b", key: "b", tag: "1", val: "bbbb"},
			{name: "c evicts a", key: "c", tag: "1", val: "cccc"},
			{name: "b grows, evicts c", key: "b", tag: "2", val: "bbbbbbbb"},
			{name: "d evicts b", key: "d", tag: "1", val: "dddd"},
		}},
		{"purges", 1 << 20, 4, []op{
			{name: "a", key: "a", tag: "1", val: "aaaa"},
			{name: "b", key: "b", tag: "1", val: "bb"},
			{name: "purge", purge: true},
			{name: "a again", key: "a", tag: "2", val: "a"},
			{name: "a replaced", key: "a", tag: "3", val: "aa"},
			{name: "purge again", purge: true},
			{name: "purge empty", purge: true},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := obs.NewCacheMetrics(obs.NewRegistry(), "gauges")
			c := New(tc.budget, tc.shards, m)
			for _, o := range tc.ops {
				if o.purge {
					c.Purge()
				} else {
					c.Put(o.key, o.tag, []byte(o.val))
				}
				bytes, entries := c.stats()
				if m.Bytes.Value() != float64(bytes) || m.Entries.Value() != float64(entries) {
					t.Fatalf("after %s: gauges %v bytes / %v entries, resident %d / %d",
						o.name, m.Bytes.Value(), m.Entries.Value(), bytes, entries)
				}
			}
		})
	}
}

func BenchmarkGetHit(b *testing.B) {
	c := New(1<<20, 16, nil)
	c.Put("hot", "t", make([]byte, 2048))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get("hot", "t"); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkGetHitParallel(b *testing.B) {
	c := New(1<<24, 16, nil)
	for i := 0; i < 64; i++ {
		c.Put(fmt.Sprintf("hot-%d", i), "t", make([]byte, 2048))
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			key := fmt.Sprintf("hot-%d", i&63)
			if _, ok := c.Get(key, "t"); !ok {
				b.Fatal("miss")
			}
			i++
		}
	})
}
