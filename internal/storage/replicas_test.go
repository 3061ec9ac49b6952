package storage

import (
	"testing"

	"repro/internal/dfs"
)

func TestReplicaStoreRoundTrip(t *testing.T) {
	s := NewReplicaStore()
	data := []byte("hello, replica")
	s.Put(7, int64(len(data)), data, dfs.Checksum(data))
	s.Put(3, 1024, nil, 0) // synthetic, size-only

	if got := s.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if ids := s.IDs(); len(ids) != 2 || ids[0] != 3 || ids[1] != 7 {
		t.Fatalf("IDs = %v, want [3 7]", ids)
	}
	r, ok := s.Get(7)
	if !ok || string(r.Data) != string(data) || r.Size != int64(len(data)) {
		t.Fatalf("Get(7) = %+v, %v", r, ok)
	}
	if !s.Delete(3) || s.Delete(3) {
		t.Fatalf("Delete(3) should succeed once then report absent")
	}
	if got := s.Len(); got != 1 {
		t.Fatalf("Len after delete = %d, want 1", got)
	}
}

func TestReplicaStoreCorruptDetected(t *testing.T) {
	s := NewReplicaStore()
	data := []byte("precious bytes that must not rot")
	s.Put(1, int64(len(data)), data, dfs.Checksum(data))

	before, _ := s.Get(1)
	if !s.Corrupt(1) {
		t.Fatalf("Corrupt(1) failed on a replica with a payload")
	}
	if r, _ := s.Get(1); dfs.Checksum(r.Data) == r.Checksum {
		t.Fatal("corrupted payload still matches its recorded checksum")
	}
	// The alias handed out before the flip keeps the original bytes.
	if string(before.Data) != string(data) {
		t.Fatalf("pre-corruption alias mutated: %q", before.Data)
	}
	if s.Corrupt(2) {
		t.Fatalf("Corrupt(2) succeeded on a missing replica")
	}
	s.Put(2, 64, nil, 0)
	if s.Corrupt(2) {
		t.Fatalf("Corrupt(2) succeeded on a payload-less replica")
	}
}
