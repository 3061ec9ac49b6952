package blockcache

import (
	"bytes"
	"testing"

	"repro/internal/simclock"
)

// checkMemory fails unless the cache's arena holds slots slots in
// chunks chunks.
func checkMemory(t *testing.T, c *Cache, slots, chunks int64, when string) {
	t.Helper()
	if st := c.Stats(); st.Slots != slots || st.Chunks != chunks {
		t.Errorf("%s: arena holds %d slots in %d chunks, want %d in %d", when, st.Slots, st.Chunks, slots, chunks)
	}
}

// A hit holds its own reference: the bytes stay the payload's through
// the entry's invalidation and the eviction of what replaced it, and
// the slot goes back only when the hit is released.
func TestHitOutlivesEvictionAndInvalidation(t *testing.T) {
	c := New(simclock.NewReal(), nShards*4096) // one 4 KiB block per shard
	payload := bytes.Repeat([]byte("p"), 4096)
	if _, _, err := c.Get("/f", 0, fetchBytes(payload, "dn0", nil)); err != nil {
		t.Fatal(err)
	}
	data, hit, err := c.Get("/f", 0, fetchBytes(nil, "", nil))
	if err != nil || hit == nil || !bytes.Equal(data, payload) {
		t.Fatalf("hit: slot=%v err=%v", hit, err)
	}
	c.InvalidateFile("/f")
	checkMemory(t, c, 1, 1, "after the hit's entry was invalidated")

	// Refill block 0 and push it out through its shard's budget; its
	// fresh slot goes back on eviction while the held hit stays put.
	other := bytes.Repeat([]byte("q"), 4096)
	if _, _, err := c.Get("/g", 0, fetchBytes(other, "dn0", nil)); err != nil {
		t.Fatal(err)
	}
	sh := c.shard(0)
	evicted := false
	for id := uint64(1); !evicted; id++ {
		if c.shard(id) != sh {
			continue
		}
		if _, _, err := c.Get("/g", id, fetchBytes(other, "dn0", nil)); err != nil {
			t.Fatal(err)
		}
		evicted = c.Stats().Evictions > 0
	}
	checkMemory(t, c, 2, 1, "after eviction: the hit and the newest entry")
	if !bytes.Equal(data, payload) {
		t.Fatal("a held hit's bytes changed after its entry was dropped")
	}
	hit.Release()
	checkMemory(t, c, 1, 1, "after the hit's release")
}

// Installing over a resident entry of the same block gives the old
// payload's slot back.
func TestReplacedPayloadGoesBack(t *testing.T) {
	c := New(simclock.NewReal(), 1<<20)
	install := func(b byte) {
		s := c.arena.Alloc(512)
		copy(s.Bytes(), bytes.Repeat([]byte{b}, 512))
		sh := c.shard(5)
		sh.mu.Lock()
		c.installLocked(sh, &entry{id: 5, file: "/f", addr: "dn0", slot: s}, c.fileGen("/f"))
		sh.mu.Unlock()
	}
	install('a')
	install('b')
	checkMemory(t, c, 1, 1, "after replacing block 5")
	data, hit, err := c.Get("/f", 5, fetchBytes(nil, "", nil))
	if err != nil || hit == nil || !bytes.Equal(data, bytes.Repeat([]byte("b"), 512)) {
		t.Fatalf("hit after replacement: slot=%v err=%v", hit, err)
	}
	hit.Release()
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 512 {
		t.Errorf("stats after replacement = %+v, want one 512-byte entry", st)
	}
}

// Close drops every entry at once but unmaps the arena only after the
// last hit still held is released; nothing is installed after it.
func TestCloseWaitsForReaders(t *testing.T) {
	c := New(simclock.NewReal(), 1<<20)
	payload := []byte("held across close")
	if _, _, err := c.Get("/f", 1, fetchBytes(payload, "dn0", nil)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get("/f", 2, fetchBytes(payload, "dn0", nil)); err != nil {
		t.Fatal(err)
	}
	data, hit, err := c.Get("/f", 1, fetchBytes(nil, "", nil))
	if err != nil || hit == nil {
		t.Fatalf("hit: slot=%v err=%v", hit, err)
	}
	c.Close()
	checkMemory(t, c, 1, 1, "after Close with a hit held")
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("stats after Close = %+v, want no entry", st)
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("a held hit's bytes changed at Close")
	}
	hit.Release()
	checkMemory(t, c, 0, 0, "after the last hit's release")

	got, slot, err := c.Get("/f", 3, fetchBytes(payload, "dn0", nil))
	if err != nil || slot != nil || !bytes.Equal(got, payload) {
		t.Fatalf("get after Close: slot=%v err=%v", slot, err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Slots != 0 || st.Chunks != 0 {
		t.Errorf("a fetch after Close was installed: %+v", st)
	}
}

// In race builds a slot is poisoned when its last reference goes, so a
// reader that kept the bytes past its Release reads the poison, not the
// payload.
func TestReleasedHitIsPoisoned(t *testing.T) {
	if !raceEnabled {
		t.Skip("freed slots are poisoned only in race builds")
	}
	c := New(simclock.NewReal(), 1<<20)
	payload := bytes.Repeat([]byte("z"), 1000)
	if _, _, err := c.Get("/f", 1, fetchBytes(payload, "dn0", nil)); err != nil {
		t.Fatal(err)
	}
	data, hit, err := c.Get("/f", 1, fetchBytes(nil, "", nil))
	if err != nil || hit == nil {
		t.Fatalf("hit: slot=%v err=%v", hit, err)
	}
	c.InvalidateFile("/f")
	if !bytes.Equal(data, payload) {
		t.Fatal("the hit's bytes changed while it was held")
	}
	hit.Release()
	if bytes.Contains(data, []byte("z")) {
		t.Error("a released slot still reads as its payload: freed slots are not poisoned")
	}
}
