package storage

import (
	"sort"
	"sync"

	"repro/internal/dfs"
)

// Replica is one stored block copy: its payload (nil for synthetic
// size-only blocks) and the CRC32C recorded when it was stored. The
// Device models a replica's timing; the ReplicaStore holds its bytes
// and integrity metadata.
type Replica struct {
	Size     int64
	Data     []byte // nil for synthetic blocks
	Checksum uint32 // 0 = unchecksummed
}

// ReplicaStore is a datanode's checksum-aware block map. It pairs each
// replica's payload with the checksum it arrived with, so the read
// path, the migrate copy, and the background scrubber can all verify
// the same stored bytes against the same write-time CRC. Safe for
// concurrent use; it never calls out while holding its lock, so it may
// be used under a caller's own mutex.
type ReplicaStore struct {
	mu sync.Mutex
	m  map[dfs.BlockID]Replica
}

// NewReplicaStore returns an empty store.
func NewReplicaStore() *ReplicaStore {
	return &ReplicaStore{m: make(map[dfs.BlockID]Replica)}
}

// Put stores (or replaces) a replica. The store takes ownership of
// data and never mutates it, so callers may keep read-only aliases.
func (s *ReplicaStore) Put(id dfs.BlockID, size int64, data []byte, checksum uint32) {
	s.mu.Lock()
	s.m[id] = Replica{Size: size, Data: data, Checksum: checksum}
	s.mu.Unlock()
}

// Get returns the replica for id. The Data slice is shared with the
// store; callers must not mutate it.
func (s *ReplicaStore) Get(id dfs.BlockID) (Replica, bool) {
	s.mu.Lock()
	r, ok := s.m[id]
	s.mu.Unlock()
	return r, ok
}

// Delete removes the replica for id, reporting whether it was present.
func (s *ReplicaStore) Delete(id dfs.BlockID) bool {
	s.mu.Lock()
	_, ok := s.m[id]
	delete(s.m, id)
	s.mu.Unlock()
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
// corrupt. The flip copies the payload first, so aliases handed out by
// Get before the corruption keep the original bytes.
func (s *ReplicaStore) Corrupt(id dfs.BlockID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.m[id]
	if !ok || len(r.Data) == 0 {
		return false
	}
	bad := make([]byte, len(r.Data))
	copy(bad, r.Data)
	bad[len(bad)/2] ^= 0xFF
	r.Data = bad
	s.m[id] = r
	return true
}
