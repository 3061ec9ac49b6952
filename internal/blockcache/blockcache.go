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
// Payloads live in slots of the cache's own bufpool.Arena, outside the
// Go heap, under the same rule as a datanode's stored replicas: the
// collector neither scans them nor counts them toward its heap goal, so
// a cached byte costs its memory once rather than twice at GOGC=100.
// Each entry holds one reference to its slot, and each hit hands the
// caller another, taken under the shard lock; eviction, replacement and
// invalidation give back only the entry's, so a hit's bytes stay valid
// until its holder releases them.
//
// All waiting goes through a clock-aware condition variable, so the
// cache is usable under both the real and the virtual clock (though
// experiment clients leave it off: a hit skips the read observer and
// reaches Ignem's reference lists only through a batched notification).
package blockcache

import (
	"bytes"
	"sync"
	"sync/atomic"

	"repro/internal/bufpool"
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
	Slots     int64 // arena slots held, by entries and by hits not yet released
	Chunks    int64 // arena chunks mapped
}

// FetchFunc materializes a block: it returns the payload bytes and the
// datanode address that served them. A nil payload with a nil error
// marks the block uncacheable (synthetic, size-only blocks); the result
// is passed through without being installed, as is an empty payload.
// The cache copies an installed payload into a slot of its own before
// it returns, so the fetcher keeps ownership of data.
type FetchFunc func() (data []byte, addr string, err error)

type entry struct {
	id   uint64
	file string
	addr string
	slot *bufpool.Slot // the entry's reference
	elem *listElem
}

func (e *entry) size() int64 { return int64(len(e.slot.Bytes())) }

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
	arena       *bufpool.Arena
	closed      atomic.Bool

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
		arena:       bufpool.NewArena(),
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

// Get returns the payload of block id, serving from the cache when
// resident and otherwise fetching via fetch. Concurrent calls for the
// same block coalesce: one caller fetches, the rest wait on the clock
// and are served the installed result.
//
// A hit returns the payload's slot with a reference taken for the
// caller, who reads data (the slot's bytes) until it calls
// hit.Release, once; eviction or invalidation in the meantime never
// recycles the bytes under it. A miss returns a nil slot and data as
// fetch returned it, still owned by the fetcher.
func (c *Cache) Get(file string, id uint64, fetch FetchFunc) (data []byte, hit *bufpool.Slot, err error) {
	sh := c.shard(id)
	sh.mu.Lock()
	for {
		if e, ok := sh.entries[id]; ok {
			sh.moveFrontLocked(e.elem)
			s := e.slot
			s.Retain()
			sh.mu.Unlock()
			c.hits.Inc()
			return s.Bytes(), s, nil
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
	var slot *bufpool.Slot
	switch {
	case err != nil || len(data) == 0:
	case int64(len(data)) > c.shardbudget:
		c.rejects.Inc()
	default:
		// The copy is made before the shard lock is taken; waiters for
		// this block stay parked on inflight until the install below.
		// The slot is nil once the cache is closed.
		if slot = c.arena.Alloc(len(data)); slot != nil {
			copy(slot.Bytes(), data)
		}
	}

	sh.mu.Lock()
	delete(sh.inflight, id)
	if slot != nil {
		c.installLocked(sh, &entry{id: id, file: file, addr: addr, slot: slot}, gen)
	}
	sh.cond.Broadcast()
	sh.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	return data, nil, nil
}

// GetOrFetch is Get for callers that want the payload on the heap: a
// hit is copied out of its slot, which is released before the return,
// so the returned slice is the caller's own. hit reports whether the
// payload came from the cache; a miss returns fetch's data unchanged.
func (c *Cache) GetOrFetch(file string, id uint64, fetch FetchFunc) (data []byte, hit bool, err error) {
	data, slot, err := c.Get(file, id, fetch)
	if slot == nil {
		return data, false, err
	}
	data = bytes.Clone(data)
	slot.Release()
	return data, true, nil
}

// installLocked adds e, whose slot holds a private copy of the fetched
// payload, to the shard unless the file mutated underneath the fetch,
// then evicts from the LRU tail until the shard fits its budget. The
// copy is what lets the fetcher recycle its buffer (a pooled transport
// buffer, or a read's destination) the moment its caller is done, and
// keeps the payload off the Go heap. A rejected copy goes straight back
// to the arena.
func (c *Cache) installLocked(sh *shard, e *entry, gen uint64) {
	if c.closed.Load() {
		e.slot.Release()
		return
	}
	if c.fileGen(e.file) != gen {
		c.rejects.Inc()
		e.slot.Release()
		return
	}
	if old, ok := sh.entries[e.id]; ok {
		c.removeLocked(sh, old)
	}
	e.elem = &listElem{e: e}
	sh.entries[e.id] = e
	sh.pushFrontLocked(e.elem)
	sh.bytes += e.size()
	c.bytes.Add(e.size())
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

// Close drops every entry and closes the arena: nothing is installed
// afterwards, and the arena's memory is unmapped once the last hit
// still held is released. An install racing Close checks the flag under
// its shard's lock, which the sweep takes after setting it, so no entry
// survives.
func (c *Cache) Close() {
	c.closed.Store(true)
	c.sweep(func(*entry) bool { return true })
	c.arena.Close()
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	slots, chunks := c.arena.Usage()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Rejects:   c.rejects.Load(),
		Bytes:     c.bytes.Load(),
		Entries:   c.entries.Load(),
		Slots:     int64(slots),
		Chunks:    int64(chunks),
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

// removeLocked unlinks e and gives back the entry's slot reference;
// hits still holding theirs keep the bytes until they release.
func (c *Cache) removeLocked(sh *shard, e *entry) {
	sh.unlinkLocked(e.elem)
	delete(sh.entries, e.id)
	sh.bytes -= e.size()
	c.bytes.Add(-e.size())
	c.entries.Add(-1)
	e.slot.Release()
}
