package bufpool

import (
	"bytes"
	"testing"
)

// In race builds a freed slot is poisoned, so a reader that kept using
// it after its release reads the poison, not the old bytes.
func TestArenaPoisonsFreedSlotsUnderRace(t *testing.T) {
	a := NewArena()
	defer a.Close()
	s := a.Alloc(64)
	copy(s.Bytes(), bytes.Repeat([]byte{7}, 64))
	stale := s.Bytes()
	s.Release()
	want := byte(7)
	if poison {
		want = poisonByte
	}
	if !bytes.Equal(stale, bytes.Repeat([]byte{want}, 64)) {
		t.Fatalf("a freed slot reads %v, want every byte %#x (poisoned: %v)", stale[:4], want, poison)
	}
}

// MakeNoZero memory is unspecified, and in race builds it reads as the
// poison until written: a caller that read a byte before writing it
// would see poisonByte, not a zero that passes for data.
func TestMakeNoZeroPoisonsUnderRace(t *testing.T) {
	for _, n := range []int{1, 100, 4096, 1 << 20, (16 << 20) + 1} {
		b := MakeNoZero(n)
		if len(b) != n || cap(b) != n {
			t.Fatalf("MakeNoZero(%d): len %d cap %d", n, len(b), cap(b))
		}
		if poison && bytes.Count(b, []byte{poisonByte}) != n {
			t.Fatalf("MakeNoZero(%d) under race holds a byte other than %#x", n, poisonByte)
		}
		b[n-1] = 1 // the memory is the caller's to write
	}
	// Pool refills come from MakeNoZero: a fresh class buffer is
	// poisoned too.
	if poison {
		b := Get((16 << 20) + 1) // above every class: never pooled
		if b[0] != poisonByte || b[len(b)-1] != poisonByte {
			t.Fatalf("an oversize Get under race reads %#x…%#x, want the poison", b[0], b[len(b)-1])
		}
	}
	if len(MakeNoZero(0)) != 0 {
		t.Fatal("MakeNoZero(0) is not empty")
	}
}
