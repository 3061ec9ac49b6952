package storage

import (
	"testing"

	"repro/internal/bufpool"
	"repro/internal/dfs"
)

// put stores data as id's replica through a slot, as the datanode does.
func put(s *ReplicaStore, id dfs.BlockID, data []byte) {
	slot := s.Alloc(len(data))
	copy(slot.Bytes(), data)
	s.Put(id, int64(len(data)), slot, dfs.Checksum(data))
	slot.Release()
}

func TestReplicaStoreRoundTrip(t *testing.T) {
	s := NewReplicaStore()
	data := []byte("hello, replica")
	put(s, 7, data)
	s.Put(3, 1024, nil, 0) // synthetic, size-only

	if got := s.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if ids := s.IDs(); len(ids) != 2 || ids[0] != 3 || ids[1] != 7 {
		t.Fatalf("IDs = %v, want [3 7]", ids)
	}
	r, ok := s.Acquire(7)
	if !ok || string(r.Data) != string(data) || r.Size != int64(len(data)) {
		t.Fatalf("Acquire(7) = %+v, %v", r, ok)
	}
	r.Release()
	if !s.Has(3) || s.Has(4) {
		t.Fatal("Has disagrees with what was stored")
	}
	if !s.Delete(3) || s.Delete(3) {
		t.Fatalf("Delete(3) should succeed once then report absent")
	}
	if got := s.Len(); got != 1 {
		t.Fatalf("Len after delete = %d, want 1", got)
	}
	if m := s.Memory(); m != (Memory{Replicas: 1, Slots: 1, Chunks: 1}) {
		t.Fatalf("Memory = %+v, want one replica in one slot", m)
	}
	s.Close()
	if m := s.Memory(); m != (Memory{}) {
		t.Fatalf("Memory after Close = %+v, want nothing held or mapped", m)
	}
}

// A synthetic block takes no slot, and the arena maps nothing for it.
func TestReplicaStoreSyntheticMapsNothing(t *testing.T) {
	s := NewReplicaStore()
	defer s.Close()
	s.Put(1, 128<<20, nil, 0)
	if m := s.Memory(); m != (Memory{}) {
		t.Fatalf("Memory = %+v after a synthetic Put, want nothing mapped", m)
	}
}

// A reader's reference keeps a deleted replica's bytes, and the slot is
// recycled only when the reader lets go: the next Alloc of the class
// reuses it then, and not before.
func TestReplicaStoreReaderOutlivesDelete(t *testing.T) {
	s := NewReplicaStore()
	defer s.Close()
	data := []byte("bytes a reader is still sending")
	put(s, 1, data)
	r, _ := s.Acquire(1)
	s.Delete(1)
	fresh := s.Alloc(len(data))
	if &fresh.Bytes()[0] == &r.Data[0] {
		t.Fatal("a slot a reader still holds was handed out again")
	}
	fresh.Release() // on the free list now, above the reader's slot
	if string(r.Data) != string(data) {
		t.Fatalf("reader's bytes changed under it: %q", r.Data)
	}
	r.Release()
	if m := s.Memory(); m.Slots != 0 || m.Replicas != 0 {
		t.Fatalf("Memory = %+v once the reader let go, want no slot held", m)
	}
	if again := s.Alloc(len(data)); &again.Bytes()[0] != &r.Data[0] {
		t.Error("the freed slot was not the first one reused (LIFO)")
	} else {
		again.Release()
	}
}

// Overwriting a replica frees the old slot once nothing else holds it.
func TestReplicaStoreOverwriteFreesOldSlot(t *testing.T) {
	s := NewReplicaStore()
	defer s.Close()
	put(s, 1, []byte("first version"))
	put(s, 1, []byte("second version"))
	if m := s.Memory(); m != (Memory{Replicas: 1, Slots: 1, Chunks: 1}) {
		t.Fatalf("Memory = %+v after an overwrite, want one slot held", m)
	}
}

// Close with a reader in flight leaves the arena mapped until the
// reader releases, then unmaps it.
func TestReplicaStoreCloseWaitsForReaders(t *testing.T) {
	s := NewReplicaStore()
	put(s, 1, []byte("in flight"))
	r, _ := s.Acquire(1)
	s.Close()
	if m := s.Memory(); m.Slots != 1 || m.Chunks != 1 {
		t.Fatalf("Memory = %+v with a reader in flight, want its slot still mapped", m)
	}
	if string(r.Data) != "in flight" {
		t.Fatalf("reader's bytes changed under Close: %q", r.Data)
	}
	r.Release()
	if m := s.Memory(); m != (Memory{}) {
		t.Fatalf("Memory = %+v after the last release, want nothing mapped", m)
	}
	if s.Alloc(1) != nil {
		t.Fatal("a closed store's arena handed out a slot")
	}
	var nilSlot *bufpool.Slot
	s.Put(2, 1, nilSlot, 0)
	if s.Len() != 0 {
		t.Fatal("a closed store stored a replica")
	}
}

func TestReplicaStoreCorruptDetected(t *testing.T) {
	s := NewReplicaStore()
	defer s.Close()
	data := []byte("precious bytes that must not rot")
	put(s, 1, data)

	before, _ := s.Acquire(1)
	defer before.Release()
	if !s.Corrupt(1) {
		t.Fatalf("Corrupt(1) failed on a replica with a payload")
	}
	r, _ := s.Acquire(1)
	if dfs.Checksum(r.Data) == r.Checksum {
		t.Fatal("corrupted payload still matches its recorded checksum")
	}
	r.Release()
	// The reader that acquired before the flip keeps the original bytes.
	if string(before.Data) != string(data) {
		t.Fatalf("pre-corruption reader's bytes mutated: %q", before.Data)
	}
	if s.Corrupt(2) {
		t.Fatalf("Corrupt(2) succeeded on a missing replica")
	}
	s.Put(2, 64, nil, 0)
	if s.Corrupt(2) {
		t.Fatalf("Corrupt(2) succeeded on a payload-less replica")
	}
}
