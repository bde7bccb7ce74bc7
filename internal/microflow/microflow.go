// Package microflow implements OVS's first-level exact-match flow cache:
// one entry per exact flow signature, capturing temporal locality. It
// fronts the Megaflow (or Gigaflow) cache in the software slowpath.
package microflow

import (
	"fmt"

	"gigaflow/internal/conntrack"
	"gigaflow/internal/flow"
	"gigaflow/internal/flowtable"
)

// Entry is one exact-match cache entry: the memoized result of processing
// a specific flow signature.
type Entry struct {
	Key     flow.Key
	Final   flow.Key // flow state after all rewrites
	Verdict flow.Verdict
	Hits    uint64
	LastHit int64

	// Ct, CtEpoch, and CtDir tie a conntrack-mode entry to the connection
	// state it memoized: the entry only serves while the connection still
	// carries CtEpoch and the packet cannot transition it (the datapath's
	// fast-path guard). Nil Ct means the result is connection-independent.
	Ct      *conntrack.Conn
	CtEpoch uint64
	CtDir   conntrack.Dir

	prev, next *Entry
}

// Stats counts cache events.
type Stats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Inserts  uint64 `json:"inserts"`
	EvictLRU uint64 `json:"evict_lru"`
	Expired  uint64 `json:"expired"`
	Invalid  uint64 `json:"invalidated"` // removed by Invalidate
}

// Snapshot bundles the cache's counters and occupancy for telemetry
// export. Not safe for concurrent use with cache mutation; call from the
// goroutine driving the cache.
type Snapshot struct {
	Stats
	Len      int `json:"len"`
	Capacity int `json:"capacity"`
}

// Cache is a capacity-bounded exact-match cache with LRU replacement.
// Entries live in a full-mask fused-probe flow table (internal/flowtable),
// pre-sized to capacity so the steady state never rehashes.
type Cache struct {
	capacity int
	entries  *flowtable.Table[*Entry]
	lruHead  *Entry
	lruTail  *Entry
	stats    Stats
}

// New creates a microflow cache holding at most capacity entries.
func New(capacity int) *Cache {
	if capacity <= 0 {
		panic(fmt.Sprintf("microflow: bad capacity %d", capacity))
	}
	return &Cache{capacity: capacity, entries: flowtable.NewExact[*Entry](capacity)}
}

// Len reports the number of cached entries.
func (c *Cache) Len() int { return c.entries.Len() }

// Capacity reports the entry limit.
func (c *Cache) Capacity() int { return c.capacity }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// LastHash returns the fused probe hash of the most recent Lookup: the
// flow identifier latency attribution logs for a microflow hit. Only
// meaningful immediately after the lookup, on the driving goroutine.
func (c *Cache) LastHash() uint64 { return c.entries.LastHash() }

// Snapshot captures the cache's current telemetry view.
func (c *Cache) Snapshot() Snapshot {
	return Snapshot{Stats: c.stats, Len: c.Len(), Capacity: c.capacity}
}

// Lookup finds the entry for exactly k. The entry is valid only until
// the next Insert, which may recycle it for another flow (see Insert).
//
//gf:hotpath
func (c *Cache) Lookup(k flow.Key, now int64) (*Entry, bool) {
	return c.lookupStats(k, now, &c.stats)
}

// lookupStats is the Lookup body with its counter destination injected:
// &c.stats for single lookups, a batch-local accumulator for BatchLookup.
// Entry hit counts and LRU position are per-entry state and always update
// per packet; only the cache-wide counters are redirected.
//
//gf:hotpath
func (c *Cache) lookupStats(k flow.Key, now int64, s *Stats) (*Entry, bool) {
	e, ok := c.entries.Lookup(k)
	if !ok {
		s.Misses++
		return nil, false
	}
	e.Hits++
	e.LastHit = now
	c.touch(e)
	s.Hits++
	return e, true
}

// BatchLookup accumulates lookup counters locally so a packet batch
// updates the cache-wide Stats once, in Flush, instead of once per
// packet. The zero value is a no-op accumulator whose Lookup must not be
// called; obtain usable values from Cache.BatchLookup.
type BatchLookup struct {
	c     *Cache
	delta Stats
}

// BatchLookup starts a batched lookup sequence against c.
func (c *Cache) BatchLookup() BatchLookup { return BatchLookup{c: c} }

// Lookup is Cache.Lookup with counters deferred to Flush.
//
//gf:hotpath
func (b *BatchLookup) Lookup(k flow.Key, now int64) (*Entry, bool) {
	return b.c.lookupStats(k, now, &b.delta)
}

// Flush folds the accumulated counters into the cache's Stats — the one
// stats update the whole batch pays. Safe on the zero value.
func (b *BatchLookup) Flush() {
	if b.c == nil {
		return
	}
	b.c.stats.Hits += b.delta.Hits
	b.c.stats.Misses += b.delta.Misses
	b.delta = Stats{}
}

// Insert memoizes the result of processing k. An existing entry for k is
// overwritten. At capacity the least-recently-used entry is evicted and
// its storage reused for k, so a full tier inserts without allocating.
//
// The returned *Entry, like Lookup's, is valid only until the next
// Insert: eviction recycles entries in place, so callers must copy what
// they need rather than keep the pointer.
func (c *Cache) Insert(k, final flow.Key, v flow.Verdict, now int64) *Entry {
	if old, ok := c.entries.Lookup(k); ok {
		old.Final, old.Verdict, old.LastHit = final, v, now
		old.Ct, old.CtEpoch, old.CtDir = nil, 0, 0
		c.touch(old)
		return old
	}
	var e *Entry
	if c.entries.Len() >= c.capacity {
		if t := c.lruTail; t != nil {
			c.remove(t)
			c.stats.EvictLRU++
			e = t
		}
	}
	if e == nil {
		e = new(Entry)
	}
	*e = Entry{Key: k, Final: final, Verdict: v, LastHit: now}
	c.entries.Put(k, e)
	c.pushFront(e)
	c.stats.Inserts++
	return e
}

// InsertCt memoizes a conntrack-mode result bound to connection state:
// the entry serves only while conn still carries epoch and a packet
// cannot transition it (the datapath enforces the guard on hit). dir is
// the memoized packet's direction relative to conn.
func (c *Cache) InsertCt(k, final flow.Key, v flow.Verdict, now int64,
	conn *conntrack.Conn, epoch uint64, dir conntrack.Dir) *Entry {
	e := c.Insert(k, final, v, now)
	e.Ct, e.CtEpoch, e.CtDir = conn, epoch, dir
	return e
}

// Remove drops the entry for exactly k — the conntrack invalidation
// hook: the datapath calls it when an entry's connection state moved on
// (epoch mismatch or a possible transition), counting the removal as an
// invalidation. Reports whether an entry was present.
//
//gf:hotpath-safe conntrack invalidation is a rare cold event on the hit path
func (c *Cache) Remove(k flow.Key) bool {
	e, ok := c.entries.Lookup(k)
	if !ok {
		return false
	}
	c.remove(e)
	c.stats.Invalid++
	return true
}

// ExpireIdle removes entries idle for longer than maxIdle. The sweep
// order is flowtable's deterministic slot order.
func (c *Cache) ExpireIdle(now, maxIdle int64) int {
	var stale []*Entry
	for it := c.entries.Iter(); it.Next(); {
		if e := it.Value(); now-e.LastHit > maxIdle {
			stale = append(stale, e)
		}
	}
	for _, e := range stale {
		c.remove(e)
		c.stats.Expired++
	}
	return len(stale)
}

// Invalidate drops every entry; called when pipeline rules change, since
// exact-match entries carry no wildcard against which to revalidate
// incrementally. The table's allocation is retained (the tier is
// capacity-pinned).
func (c *Cache) Invalidate() int {
	n := c.entries.Len()
	c.entries.Reset()
	c.lruHead, c.lruTail = nil, nil
	c.stats.Invalid += uint64(n)
	return n
}

func (c *Cache) remove(e *Entry) {
	c.entries.Delete(e.Key)
	c.unlink(e)
}

func (c *Cache) pushFront(e *Entry) {
	e.prev = nil
	e.next = c.lruHead
	if c.lruHead != nil {
		c.lruHead.prev = e
	}
	c.lruHead = e
	if c.lruTail == nil {
		c.lruTail = e
	}
}

func (c *Cache) unlink(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.lruHead == e {
		c.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.lruTail == e {
		c.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) touch(e *Entry) {
	if c.lruHead == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
