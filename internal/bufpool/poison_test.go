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
	if poisonFreedSlots {
		want = poisonByte
	}
	if !bytes.Equal(stale, bytes.Repeat([]byte{want}, 64)) {
		t.Fatalf("a freed slot reads %v, want every byte %#x (poisoned: %v)", stale[:4], want, poisonFreedSlots)
	}
}
