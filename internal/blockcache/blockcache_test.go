package blockcache

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simclock"
)

func fetchBytes(data []byte, addr string, fetches *atomic.Int64) FetchFunc {
	return func() ([]byte, string, error) {
		if fetches != nil {
			fetches.Add(1)
		}
		return data, addr, nil
	}
}

func TestHitMissAndCounters(t *testing.T) {
	c := New(simclock.NewReal(), 1<<20)
	var fetches atomic.Int64
	payload := []byte("block-zero")

	got, hit, err := c.GetOrFetch("/f", 0, fetchBytes(payload, "dn0", &fetches))
	if err != nil || hit || !bytes.Equal(got, payload) {
		t.Fatalf("first get: %q hit=%v err=%v", got, hit, err)
	}
	got, hit, err = c.GetOrFetch("/f", 0, fetchBytes(nil, "", &fetches))
	if err != nil || !hit || !bytes.Equal(got, payload) {
		t.Fatalf("second get: %q hit=%v err=%v", got, hit, err)
	}
	if n := fetches.Load(); n != 1 {
		t.Errorf("fetches = %d, want 1", n)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != int64(len(payload)) {
		t.Errorf("stats = %+v", st)
	}
}

func TestFetchErrorNotCached(t *testing.T) {
	c := New(simclock.NewReal(), 1<<20)
	boom := errors.New("boom")
	if _, _, err := c.GetOrFetch("/f", 1, func() ([]byte, string, error) {
		return nil, "", boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	var fetches atomic.Int64
	if _, hit, err := c.GetOrFetch("/f", 1, fetchBytes([]byte("x"), "dn0", &fetches)); err != nil || hit {
		t.Fatalf("retry after error: hit=%v err=%v", hit, err)
	}
	if fetches.Load() != 1 {
		t.Error("failed fetch left the block cached or inflight")
	}
}

func TestNilPayloadPassesThroughUncached(t *testing.T) {
	c := New(simclock.NewReal(), 1<<20)
	var fetches atomic.Int64
	for i := 0; i < 2; i++ {
		data, hit, err := c.GetOrFetch("/synth", 2, fetchBytes(nil, "dn0", &fetches))
		if err != nil || hit || data != nil {
			t.Fatalf("synthetic get %d: data=%v hit=%v err=%v", i, data, hit, err)
		}
	}
	if fetches.Load() != 2 {
		t.Errorf("fetches = %d, want 2 (nil payloads are never installed)", fetches.Load())
	}
}

// TestByteBoundEvictsLRU fills one logical file far past the budget and
// checks the cache stays within bounds, evicting the least recently used
// entries first.
func TestByteBoundEvictsLRU(t *testing.T) {
	const blockLen = 1024
	const budget = nShards * 4 * blockLen // 4 blocks per shard
	c := New(simclock.NewReal(), budget)
	data := bytes.Repeat([]byte("x"), blockLen)
	for id := uint64(0); id < 64; id++ {
		if _, _, err := c.GetOrFetch("/f", id, fetchBytes(data, "dn0", nil)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Bytes > budget {
		t.Errorf("resident %d bytes exceeds budget %d", st.Bytes, budget)
	}
	if st.Evictions == 0 {
		t.Error("no evictions after overfilling the cache")
	}
	if st.Bytes != st.Entries*blockLen {
		t.Errorf("bytes gauge %d inconsistent with %d entries", st.Bytes, st.Entries)
	}
	// id 63 was touched last; it must still be resident.
	var fetches atomic.Int64
	if _, hit, _ := c.GetOrFetch("/f", 63, fetchBytes(data, "dn0", &fetches)); !hit {
		t.Error("most recently used block was evicted")
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	c := New(simclock.NewReal(), nShards*8) // 8-byte shard budget
	big := bytes.Repeat([]byte("y"), 64)
	got, hit, err := c.GetOrFetch("/f", 3, fetchBytes(big, "dn0", nil))
	if err != nil || hit || !bytes.Equal(got, big) {
		t.Fatalf("oversized get: hit=%v err=%v", hit, err)
	}
	st := c.Stats()
	if st.Entries != 0 || st.Rejects != 1 {
		t.Errorf("stats after oversized fetch = %+v", st)
	}
}

func TestInvalidateFileDropsEntries(t *testing.T) {
	c := New(simclock.NewReal(), 1<<20)
	for id := uint64(0); id < 4; id++ {
		file := "/a"
		if id >= 2 {
			file = "/b"
		}
		if _, _, err := c.GetOrFetch(file, id, fetchBytes([]byte("data"), "dn0", nil)); err != nil {
			t.Fatal(err)
		}
	}
	c.InvalidateFile("/a")
	if st := c.Stats(); st.Entries != 2 {
		t.Errorf("entries after invalidating /a = %d, want 2", st.Entries)
	}
	var fetches atomic.Int64
	if _, hit, _ := c.GetOrFetch("/a", 0, fetchBytes([]byte("data"), "dn0", &fetches)); hit {
		t.Error("invalidated block served from cache")
	}
	if _, hit, _ := c.GetOrFetch("/b", 2, fetchBytes(nil, "", nil)); !hit {
		t.Error("unrelated file was invalidated")
	}
}

func TestInvalidateAddrDropsEntries(t *testing.T) {
	c := New(simclock.NewReal(), 1<<20)
	for id := uint64(0); id < 4; id++ {
		addr := fmt.Sprintf("dn%d", id%2)
		if _, _, err := c.GetOrFetch("/f", id, fetchBytes([]byte("data"), addr, nil)); err != nil {
			t.Fatal(err)
		}
	}
	c.InvalidateAddr("dn0")
	if st := c.Stats(); st.Entries != 2 {
		t.Errorf("entries after dropping dn0 = %d, want 2", st.Entries)
	}
}

// TestInvalidateDuringFetchRejectsStaleInstall is the generation race:
// a file mutates while one of its blocks is being fetched; the fetched
// payload must not be installed.
func TestInvalidateDuringFetchRejectsStaleInstall(t *testing.T) {
	c := New(simclock.NewReal(), 1<<20)
	fetching := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = c.GetOrFetch("/f", 9, func() ([]byte, string, error) {
			close(fetching)
			<-release
			return []byte("stale"), "dn0", nil
		})
	}()
	<-fetching
	c.InvalidateFile("/f")
	close(release)
	<-done
	st := c.Stats()
	if st.Entries != 0 || st.Rejects != 1 {
		t.Errorf("stale payload installed: stats = %+v", st)
	}
}

// TestSingleflightCoalesces launches many goroutines at one cold block
// and requires exactly one underlying fetch.
func TestSingleflightCoalesces(t *testing.T) {
	c := New(simclock.NewReal(), 1<<20)
	var fetches atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	const readers = 16
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, _, err := c.GetOrFetch("/f", 7, func() ([]byte, string, error) {
				fetches.Add(1)
				time.Sleep(10 * time.Millisecond) // hold the flight open
				return []byte("hot"), "dn0", nil
			})
			if err != nil || string(got) != "hot" {
				t.Errorf("coalesced get: %q err=%v", got, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := fetches.Load(); n != 1 {
		t.Errorf("fetches = %d, want 1 (singleflight)", n)
	}
	if st := c.Stats(); st.Hits != readers-1 {
		t.Errorf("hits = %d, want %d", st.Hits, readers-1)
	}
}
