package client_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dfs/client"
)

// Cached payloads live in arena slots that eviction and invalidation
// recycle, so a hit's bytes are safe only while its response holds its
// slot reference. TestCachedReadsUnderInvalidation hammers that: four
// readers ReadFile hot files through one client's cache while a writer
// overwrites them, deleting each through the readers' client so that
// every overwrite invalidates entries readers may be copying out of; a
// read that fails on a deleted block drops its datanode's entries too,
// and the small budget evicts under them. A hit handed out without its
// own reference would be copied after its slot went back (in race
// builds, after the slot was poisoned) and read as bytes of no version.
// Once the client is closed, the cache's arena holds and maps nothing.
// The writer is a client of its own, as in the replica hammer: a read
// failure forgets its datanode connection, which would cut off a write
// in flight on a shared one.
func TestCachedReadsUnderInvalidation(t *testing.T) {
	eachTransport(t, func(t *testing.T, tcp bool) {
		const (
			files     = 4
			blockSize = 64 << 10
			size      = 4 * blockSize
			rounds    = 48
			readers   = 4
		)
		lc := startLive(t, tcp, 4)
		c, err := client.New(lc.Clock, lc.net, lc.NameNode.Addr(), client.WithBlockCache(2*size))
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		writer := lc.client(t)
		path := func(f int) string { return fmt.Sprintf("/cached-hammer/f%d", f) }
		for f := 0; f < files; f++ {
			if err := writer.WriteFile(path(f), hammerVersion(f, 0, size), blockSize, 2); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
		}

		var done atomic.Bool
		var good, failed atomic.Int64
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := r; !done.Load(); i++ {
					f := i % files
					got, err := c.ReadFile(path(f), "")
					if err != nil || len(got) == 0 {
						failed.Add(1) // deleted under the read, or no block yet
						continue
					}
					v := int(binary.LittleEndian.Uint64(got))
					if len(got) > size || v > rounds || !bytes.Equal(got, hammerVersion(f, v, size)[:len(got)]) {
						t.Errorf("reader %d: %s read back bytes of no version it ever had", r, path(f))
						return
					}
					good.Add(1)
				}
			}(r)
		}
		for v := 1; v <= rounds; v++ {
			f := v % files
			if err := c.Delete(path(f)); err != nil {
				t.Errorf("Delete: %v", err)
			}
			if err := writer.WriteFile(path(f), hammerVersion(f, v, size), blockSize, 2); err != nil {
				t.Errorf("WriteFile v%d: %v", v, err)
			}
		}
		done.Store(true)
		wg.Wait()

		if n := c.ChecksumFailures(); n != 0 {
			t.Errorf("%d block reads failed their end-to-end checksum", n)
		}
		st := c.CacheStats()
		if good.Load() == 0 || st.Hits == 0 {
			t.Fatalf("%d reads checked, %d cache hits: the hammer checked nothing", good.Load(), st.Hits)
		}
		t.Logf("%d reads checked, %d raced a delete; cache %+v", good.Load(), failed.Load(), st)
		c.Close()
		if st := c.CacheStats(); st.Slots != 0 || st.Chunks != 0 {
			t.Errorf("cache arena holds %d slots in %d chunks after Close, want none", st.Slots, st.Chunks)
		}
	})
}

// TestCacheArenaReusesSlots pins that cache memory is recycled: a
// thousand overwrite-and-read cycles on one client map no cache arena
// chunk after warm-up, since each overwrite invalidates the old
// version's entries and their slots take the new version's blocks.
func TestCacheArenaReusesSlots(t *testing.T) {
	const (
		blockSize = 256 << 10
		size      = 4 * blockSize
	)
	cycles := 1000
	if raceEnabled {
		cycles = 100
	}
	lc := startLive(t, true, 4)
	cl := lc.client(t, client.WithBlockCache(4*size))
	in := patterned(size, 5)
	cycle := func() {
		_ = cl.Delete("/cache-arena/f") // absent on the first cycle
		if err := cl.WriteFile("/cache-arena/f", in, blockSize, 2); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		for i := 0; i < 2; i++ { // a miss that installs, then a hit
			got, err := cl.ReadFile("/cache-arena/f", "")
			if err != nil || !bytes.Equal(got, in) {
				t.Fatalf("ReadFile: %d bytes, %v", len(got), err)
			}
		}
	}
	for i := 0; i < 20; i++ {
		cycle()
	}
	warm := cl.CacheStats()
	for i := 0; i < cycles; i++ {
		cycle()
	}
	st := cl.CacheStats()
	if st.Chunks != warm.Chunks {
		t.Errorf("%d overwrite-and-read cycles mapped %d more cache arena chunks after warm-up", cycles, st.Chunks-warm.Chunks)
	}
	if hits := st.Hits - warm.Hits; hits != int64(cycles)*4 {
		t.Errorf("%d cache hits over %d cycles, want %d: the reads did not go through the cache", hits, cycles, cycles*4)
	}
	if st.Slots != st.Entries {
		t.Errorf("%d slots held for %d entries with no read in flight", st.Slots, st.Entries)
	}
	t.Logf("%d chunks mapped, %d entries after %d cycles", st.Chunks, st.Entries, cycles)
}
