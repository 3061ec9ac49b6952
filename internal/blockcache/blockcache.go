// Package blockcache implements the shared client-level block cache: a
// size-bounded (bytes, not entries), sharded-LRU cache of immutable
// block payloads, shared by every Reader and ReadFile call created from
// one DFS client. Concurrent fetches of the same block are coalesced
// singleflight-style, so N readers racing over one hot block issue one
// datanode fetch.
//
// Keys are block IDs (cluster-unique and never reused), with each entry
// also recording the owning file and the datanode address that served
// it. Invalidation runs along both axes: InvalidateFile drops a file's
// entries and bumps its generation so an in-flight fetch that started
// before the mutation can never install a stale payload; InvalidateAddr
// drops everything served by a failed datanode.
//
// All waiting goes through a clock-aware condition variable, so the
// cache is usable under both the real and the virtual clock (though
// experiment clients leave it off: a hit skips the read observer and
// reaches Ignem's reference lists only through a batched notification).
package blockcache

import (
	"bytes"
	"slices"
	"sync"

	"repro/internal/metrics"
	"repro/internal/simclock"
)

// nShards is the shard count; block IDs hash across shards so hot files
// spread their lock traffic.
const nShards = 8

// Stats is a point-in-time snapshot of cache activity.
type Stats struct {
	Hits      int64 // lookups served from the cache (including coalesced waiters)
	Misses    int64 // lookups that had to fetch
	Evictions int64 // entries dropped to respect the byte budget
	Rejects   int64 // fetched payloads not installed (stale generation or oversized)
	Bytes     int64 // payload bytes currently resident
	Entries   int64 // entries currently resident
}

// FetchFunc materializes a block: it returns the payload bytes and the
// datanode address that served them. A nil payload with a nil error
// marks the block uncacheable (synthetic, size-only blocks); the result
// is passed through without being installed.
type FetchFunc func() (data []byte, addr string, err error)

type entry struct {
	id   uint64
	file string
	addr string
	data []byte
	elem *listElem
}

// listElem is an intrusive doubly-linked LRU node (MRU at head).
type listElem struct {
	e          *entry
	prev, next *listElem
}

type shard struct {
	mu       sync.Mutex
	cond     *simclock.Cond
	entries  map[uint64]*entry
	inflight map[uint64]bool
	bytes    int64
	// head/tail of the LRU list; head is most recently used.
	head, tail *listElem
}

// Cache is a shared block cache. The zero value is not usable; call New.
type Cache struct {
	shardbudget int64
	shards      [nShards]shard

	// gens guards per-file generations. A file's generation is bumped by
	// InvalidateFile; a fetch records the generation it started under and
	// its result is only installed if the generation is unchanged.
	genMu sync.RWMutex
	gens  map[string]uint64

	hits, misses, evictions, rejects metrics.Counter
	bytes, entries                   metrics.Gauge
}

// New returns a cache bounded to maxBytes of payload across all shards.
// The budget is split evenly per shard (an entry larger than one shard's
// budget is served but never installed). clock drives singleflight
// waiting, so the cache composes with virtual-clock simulations.
func New(clock simclock.Clock, maxBytes int64) *Cache {
	if maxBytes < 1 {
		maxBytes = 1
	}
	c := &Cache{
		shardbudget: maxBytes / nShards,
		gens:        make(map[string]uint64),
	}
	if c.shardbudget < 1 {
		c.shardbudget = 1
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.entries = make(map[uint64]*entry)
		sh.inflight = make(map[uint64]bool)
		sh.cond = simclock.NewCond(clock, &sh.mu)
	}
	return c
}

func (c *Cache) shard(id uint64) *shard {
	// Fibonacci hashing spreads the namenode's sequential block IDs.
	return &c.shards[(id*0x9E3779B97F4A7C15)>>61%nShards]
}

func (c *Cache) fileGen(file string) uint64 {
	c.genMu.RLock()
	defer c.genMu.RUnlock()
	return c.gens[file]
}

// GetOrFetch returns the payload of block id, serving from the cache
// when resident and otherwise fetching via fetch. Concurrent calls for
// the same block coalesce: one caller fetches, the rest wait on the
// clock and are served the installed result. hit reports whether the
// payload came from the cache. The returned slice is shared — callers
// must treat it as read-only.
func (c *Cache) GetOrFetch(file string, id uint64, fetch FetchFunc) (data []byte, hit bool, err error) {
	sh := c.shard(id)
	sh.mu.Lock()
	for {
		if e, ok := sh.entries[id]; ok {
			sh.moveFrontLocked(e.elem)
			sh.mu.Unlock()
			c.hits.Inc()
			return e.data, true, nil
		}
		if !sh.inflight[id] {
			break
		}
		sh.cond.Wait()
		// Re-check: the leader either installed the entry (hit above) or
		// failed/declined to cache, in which case this waiter leads.
	}
	sh.inflight[id] = true
	sh.mu.Unlock()

	c.misses.Inc()
	gen := c.fileGen(file)
	data, addr, err := fetch()

	sh.mu.Lock()
	delete(sh.inflight, id)
	if err == nil && data != nil {
		c.installLocked(sh, &entry{id: id, file: file, addr: addr, data: data}, gen)
	}
	sh.cond.Broadcast()
	sh.mu.Unlock()
	if err != nil {
		return nil, false, err
	}
	return data, false, nil
}

// installLocked adds e to the shard unless the file mutated underneath
// the fetch or the payload exceeds the shard budget, then evicts from
// the LRU tail until the shard fits its budget.
func (c *Cache) installLocked(sh *shard, e *entry, gen uint64) {
	if c.fileGen(e.file) != gen || int64(len(e.data)) > c.shardbudget {
		c.rejects.Inc()
		return
	}
	// The cache owns a private copy of the payload: fetched slices may
	// be pooled transport buffers, recycled by the fetcher once its
	// caller copies out. Hits hand out this copy; it is never returned
	// to any pool. bytes.Clone writes each byte once (the runtime does
	// not zero memory that append copies over), and the clip keeps a
	// hit's capacity at its length, so no holder can append into memory
	// other holders share.
	e.data = slices.Clip(bytes.Clone(e.data))
	if old, ok := sh.entries[e.id]; ok {
		c.removeLocked(sh, old)
	}
	e.elem = &listElem{e: e}
	sh.entries[e.id] = e
	sh.pushFrontLocked(e.elem)
	sh.bytes += int64(len(e.data))
	c.bytes.Add(int64(len(e.data)))
	c.entries.Add(1)
	for sh.bytes > c.shardbudget && sh.tail != nil {
		victim := sh.tail.e
		if victim == e {
			break // never evict the entry just installed
		}
		c.removeLocked(sh, victim)
		c.evictions.Inc()
	}
}

// InvalidateFile drops every cached block of file and bumps its
// generation, so in-flight fetches started before the mutation are
// discarded rather than installed.
func (c *Cache) InvalidateFile(file string) {
	c.genMu.Lock()
	c.gens[file]++
	c.genMu.Unlock()
	c.sweep(func(e *entry) bool { return e.file == file })
}

// InvalidateAddr drops every cached block served by the datanode at
// addr (called when a replica holder fails).
func (c *Cache) InvalidateAddr(addr string) {
	c.sweep(func(e *entry) bool { return e.addr == addr })
}

// sweep removes every entry matching drop. Invalidation is rare (file
// mutations and node failures), so a full scan beats the locking a
// reverse index would need on the hot lookup path.
func (c *Cache) sweep(drop func(*entry) bool) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			if drop(e) {
				c.removeLocked(sh, e)
			}
		}
		sh.mu.Unlock()
	}
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Rejects:   c.rejects.Load(),
		Bytes:     c.bytes.Load(),
		Entries:   c.entries.Load(),
	}
}

// ---- intrusive LRU list plumbing (shard.mu held) ----

func (sh *shard) pushFrontLocked(el *listElem) {
	el.prev = nil
	el.next = sh.head
	if sh.head != nil {
		sh.head.prev = el
	}
	sh.head = el
	if sh.tail == nil {
		sh.tail = el
	}
}

func (sh *shard) unlinkLocked(el *listElem) {
	if el.prev != nil {
		el.prev.next = el.next
	} else {
		sh.head = el.next
	}
	if el.next != nil {
		el.next.prev = el.prev
	} else {
		sh.tail = el.prev
	}
	el.prev, el.next = nil, nil
}

func (sh *shard) moveFrontLocked(el *listElem) {
	if sh.head == el {
		return
	}
	sh.unlinkLocked(el)
	sh.pushFrontLocked(el)
}

func (c *Cache) removeLocked(sh *shard, e *entry) {
	sh.unlinkLocked(e.elem)
	delete(sh.entries, e.id)
	sh.bytes -= int64(len(e.data))
	c.bytes.Add(-int64(len(e.data)))
	c.entries.Add(-1)
}
