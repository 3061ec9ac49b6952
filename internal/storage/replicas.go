package storage

import (
	"sort"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/dfs"
)

// Replica is one stored block copy: its payload (nil for synthetic
// size-only blocks) and the CRC32C recorded when it was stored. The
// Device models a replica's timing; the ReplicaStore holds its bytes
// and integrity metadata.
type Replica struct {
	Size     int64
	Data     []byte // nil for synthetic blocks; valid until Release
	Checksum uint32 // 0 = unchecksummed
	// Slot is the arena slot Data lies in (nil for synthetic blocks).
	// A Replica from Acquire holds one reference to it.
	Slot *bufpool.Slot
}

// Release gives back the reference an Acquire took.
func (r Replica) Release() {
	if r.Slot != nil {
		r.Slot.Release()
	}
}

// ReplicaStore is a datanode's checksum-aware block map. It pairs each
// replica's payload with the checksum it arrived with, so the read
// path, the migrate copy, and the background scrubber can all verify
// the same stored bytes against the same write-time CRC.
//
// Every stored payload byte lives in a slot of the store's arena, memory
// outside the Go heap (bufpool.Arena). The store holds one reference to
// each stored slot, and each reader of the bytes holds one of its own
// (Acquire) until it is done with them, so Delete and an overwriting Put
// hand a slot back as soon as its last reader has finished. Safe for
// concurrent use; it never calls out while holding its lock, so it may
// be used under a caller's own mutex.
type ReplicaStore struct {
	arena *bufpool.Arena

	mu     sync.Mutex
	m      map[dfs.BlockID]Replica
	closed bool
}

// NewReplicaStore returns an empty store. Its arena maps no memory
// before the first payload byte arrives.
func NewReplicaStore() *ReplicaStore {
	return &ReplicaStore{arena: bufpool.NewArena(), m: make(map[dfs.BlockID]Replica)}
}

// Alloc returns a fresh slot of n bytes from the store's arena, holding
// one reference, for a payload about to be stored; nil once the store
// is closed.
func (s *ReplicaStore) Alloc(n int) *bufpool.Slot { return s.arena.Alloc(n) }

// Put stores (or replaces) a replica whose payload is slot's bytes (nil
// slot: a synthetic block). The store takes a reference of its own; the
// caller keeps and releases its own. A replaced replica's reference is
// released. Put on a closed store stores nothing.
func (s *ReplicaStore) Put(id dfs.BlockID, size int64, slot *bufpool.Slot, checksum uint32) {
	r := Replica{Size: size, Checksum: checksum, Slot: slot}
	if slot != nil {
		slot.Retain()
		r.Data = slot.Bytes()
	}
	s.mu.Lock()
	old, had := s.m[id]
	if s.closed {
		had, old = true, r // drop the reference just taken
	} else {
		s.m[id] = r
	}
	s.mu.Unlock()
	if had {
		old.Release()
	}
}

// Has reports whether a replica of id is stored.
func (s *ReplicaStore) Has(id dfs.BlockID) bool {
	s.mu.Lock()
	_, ok := s.m[id]
	s.mu.Unlock()
	return ok
}

// Acquire returns the replica for id holding a reference to its slot,
// which the caller must Release once it no longer reads Data. The bytes
// must not be written.
func (s *ReplicaStore) Acquire(id dfs.BlockID) (Replica, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.m[id]
	if ok && r.Slot != nil {
		r.Slot.Retain()
	}
	return r, ok
}

// Delete removes the replica for id, reporting whether it was present.
// Its slot is freed once no reader holds it any more.
func (s *ReplicaStore) Delete(id dfs.BlockID) bool {
	s.mu.Lock()
	r, ok := s.m[id]
	delete(s.m, id)
	s.mu.Unlock()
	r.Release()
	return ok
}

// Len reports how many replicas are stored.
func (s *ReplicaStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// IDs returns every stored block ID, sorted ascending (reports and
// scrub sweeps need a deterministic iteration order).
func (s *ReplicaStore) IDs() []dfs.BlockID {
	s.mu.Lock()
	out := make([]dfs.BlockID, 0, len(s.m))
	for id := range s.m {
		out = append(out, id)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Corrupt flips one payload byte of id's replica while keeping its
// recorded checksum — a fault-injection hook for corruption-recovery
// tests. Returns false when the replica is absent or has no payload to
// corrupt. The flip goes into a fresh slot, so readers that acquired the
// replica before the corruption keep the original bytes.
func (s *ReplicaStore) Corrupt(id dfs.BlockID) bool {
	r, ok := s.Acquire(id)
	if !ok || r.Slot == nil {
		return false
	}
	defer r.Release()
	bad := s.Alloc(len(r.Data))
	if bad == nil {
		return false
	}
	defer bad.Release()
	copy(bad.Bytes(), r.Data)
	bad.Bytes()[len(r.Data)/2] ^= 0xFF
	s.Put(id, r.Size, bad, r.Checksum)
	return true
}

// Close drops every replica and closes the arena: its memory is
// unmapped as soon as the last reader has released its slot.
func (s *ReplicaStore) Close() {
	s.mu.Lock()
	m := s.m
	s.m = make(map[dfs.BlockID]Replica)
	s.closed = true
	s.mu.Unlock()
	for _, r := range m {
		r.Release()
	}
	s.arena.Close()
}

// Memory is an account of a store's replica memory.
type Memory struct {
	// Replicas is the number of stored replicas with bytes, and Shared
	// is Replicas minus the distinct slots they name.
	Replicas, Shared int
	// Slots is the number of arena slots anyone holds a reference to:
	// the store, a serve in flight, a write being received. Chunks is
	// the number of arena chunks mapped.
	Slots, Chunks int
}

// Memory reports the store's replica memory. At quiescence, with no
// reader or write in flight, Slots equals Replicas and Shared is zero;
// once the store is closed and its readers are done, Slots and Chunks
// are zero.
func (s *ReplicaStore) Memory() Memory {
	var mem Memory
	s.mu.Lock()
	seen := make(map[*bufpool.Slot]bool, len(s.m))
	for _, r := range s.m {
		if r.Slot == nil {
			continue
		}
		mem.Replicas++
		if seen[r.Slot] {
			mem.Shared++
		}
		seen[r.Slot] = true
	}
	s.mu.Unlock()
	mem.Slots, mem.Chunks = s.arena.Usage()
	return mem
}
