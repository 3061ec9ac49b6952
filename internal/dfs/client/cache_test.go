package client_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/blockcache"
	"repro/internal/dfs"
	"repro/internal/dfs/client"
	"repro/internal/simclock"
)

// countingObserver tallies datanode block fetches (cache hits bypass the
// datanode and therefore fire no event).
type countingObserver struct {
	mu     sync.Mutex
	events int
	blocks map[dfs.BlockID]int
}

func (o *countingObserver) fn() func(client.BlockReadEvent) {
	o.blocks = make(map[dfs.BlockID]int)
	return func(ev client.BlockReadEvent) {
		o.mu.Lock()
		o.events++
		o.blocks[ev.Block]++
		o.mu.Unlock()
	}
}

func (o *countingObserver) count() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.events
}

func (o *countingObserver) maxPerBlock() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	max := 0
	for _, n := range o.blocks {
		if n > max {
			max = n
		}
	}
	return max
}

// TestBlockCacheServesSecondScanFromMemory is the tentpole behavior: a
// second whole-file scan through a cache-enabled client touches no
// datanode.
func TestBlockCacheServesSecondScanFromMemory(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 6})
		defer mc.Close()
		var obs countingObserver
		c := mc.client(t, client.WithBlockCache(64<<20), client.WithReadObserver(obs.fn()))
		defer c.Close()
		data := writeBlocky(t, c, "/hot", 8, 4096, 2)

		first, err := c.ReadFile("/hot", "j")
		if err != nil {
			t.Fatalf("first scan: %v", err)
		}
		after1 := obs.count()
		if after1 != 8 {
			t.Fatalf("first scan fetched %d blocks from datanodes, want 8", after1)
		}
		second, err := c.ReadFile("/hot", "j")
		if err != nil {
			t.Fatalf("second scan: %v", err)
		}
		if got := obs.count(); got != after1 {
			t.Errorf("second scan fetched %d more blocks from datanodes, want 0", got-after1)
		}
		if !bytes.Equal(first, data) || !bytes.Equal(second, data) {
			t.Error("cached scan returned different bytes")
		}
		st := c.CacheStats()
		if st.Hits < 8 || st.Misses != 8 {
			t.Errorf("cache stats = %+v, want ≥8 hits and exactly 8 misses", st)
		}
	})
}

// TestBlockCacheSharedAcrossReaders checks one client's ReadBlock and
// ReadFile calls share a single cache: block reads warmed by a prior
// ReadFile fetch nothing.
func TestBlockCacheSharedAcrossReaders(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 6})
		defer mc.Close()
		var obs countingObserver
		c := mc.client(t, client.WithBlockCache(64<<20), client.WithReadObserver(obs.fn()))
		defer c.Close()
		data := writeBlocky(t, c, "/hot", 6, 4096, 2)
		if _, err := c.ReadFile("/hot", "j"); err != nil {
			t.Fatalf("warm scan: %v", err)
		}
		warm := obs.count()

		blocks, err := c.Locations("/hot")
		if err != nil {
			t.Fatalf("Locations: %v", err)
		}
		var got []byte
		for _, lb := range blocks {
			resp, err := c.ReadBlock(lb, "j")
			if err != nil {
				t.Fatalf("ReadBlock: %v", err)
			}
			got = append(got, resp.Data...)
			resp.Release()
		}
		if !bytes.Equal(got, data) {
			t.Error("block-read bytes differ from written bytes")
		}
		if obs.count() != warm {
			t.Errorf("warmed ReadBlock still fetched %d blocks from datanodes", obs.count()-warm)
		}
	})
}

// TestBlockCacheCoalescesConcurrentColdReaders races many readers at a
// cold file and requires each block to be fetched from a datanode at
// most once (singleflight).
func TestBlockCacheCoalescesConcurrentColdReaders(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 6})
		defer mc.Close()
		var obs countingObserver
		c := mc.client(t, client.WithBlockCache(64<<20), client.WithReadObserver(obs.fn()))
		defer c.Close()
		data := writeBlocky(t, c, "/hot", 8, 4096, 2)

		wg := simclock.NewWaitGroup(v)
		for i := 0; i < 8; i++ {
			wg.Go(func() {
				got, err := c.ReadFile("/hot", "j")
				if err != nil {
					t.Errorf("concurrent scan: %v", err)
					return
				}
				if !bytes.Equal(got, data) {
					t.Error("concurrent scan returned wrong bytes")
				}
			})
		}
		wg.Wait()
		if n := obs.maxPerBlock(); n > 1 {
			t.Errorf("some block was fetched %d times from datanodes, want ≤1", n)
		}
	})
}

// TestBlockCacheInvalidatedOnRewrite deletes and rewrites a scanned file
// and expects the next scan to see the new content, not cached bytes.
func TestBlockCacheInvalidatedOnRewrite(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 6})
		defer mc.Close()
		c := mc.client(t, client.WithBlockCache(64<<20))
		defer c.Close()
		writeBlocky(t, c, "/f", 4, 4096, 2)
		if _, err := c.ReadFile("/f", "j"); err != nil {
			t.Fatalf("warm scan: %v", err)
		}
		if err := c.Delete("/f"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		fresh := bytes.Repeat([]byte("Z"), 4*4096)
		if err := c.WriteFile("/f", fresh, 4096, 2); err != nil {
			t.Fatalf("rewrite: %v", err)
		}
		got, err := c.ReadFile("/f", "j")
		if err != nil {
			t.Fatalf("post-rewrite scan: %v", err)
		}
		if !bytes.Equal(got, fresh) {
			t.Error("scan after rewrite returned stale cached bytes")
		}
	})
}

// TestBlockCacheInvalidatedOnMigrateEvict warms the cache, then issues
// Migrate and Evict for the file and expects the next scan to re-fetch
// (the migration state changed, so cached provenance is stale).
func TestBlockCacheInvalidatedOnMigrateEvict(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 4})
		defer mc.Close()
		var obs countingObserver
		c := mc.client(t, client.WithBlockCache(64<<20), client.WithReadObserver(obs.fn()))
		defer c.Close()
		writeBlocky(t, c, "/in", 4, 4096, 2)
		if _, err := c.ReadFile("/in", "job1"); err != nil {
			t.Fatalf("warm scan: %v", err)
		}
		warm := obs.count()

		if _, err := c.Migrate("job1", []string{"/in"}, false); err != nil {
			t.Fatalf("Migrate: %v", err)
		}
		if _, err := c.ReadFile("/in", "job1"); err != nil {
			t.Fatalf("post-migrate scan: %v", err)
		}
		afterMigrate := obs.count()
		if afterMigrate != warm+4 {
			t.Errorf("post-migrate scan fetched %d blocks, want 4 (cache invalidated)", afterMigrate-warm)
		}

		evicted, err := c.Evict("job1", []string{"/in"})
		if err != nil {
			t.Fatalf("Evict: %v", err)
		}
		if evicted != 4 {
			t.Errorf("Evict reported %d block notifications, want 4", evicted)
		}
		if _, err := c.ReadFile("/in", "job1"); err != nil {
			t.Fatalf("post-evict scan: %v", err)
		}
		if got := obs.count(); got != afterMigrate+4 {
			t.Errorf("post-evict scan fetched %d blocks, want 4 (cache invalidated)", got-afterMigrate)
		}
	})
}

// TestBlockCacheDefaultOff: without WithBlockCache every scan re-fetches
// and CacheStats stays zero — the experiment-client contract.
func TestBlockCacheDefaultOff(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 4})
		defer mc.Close()
		var obs countingObserver
		c := mc.client(t, client.WithReadObserver(obs.fn()))
		defer c.Close()
		writeBlocky(t, c, "/f", 4, 4096, 2)
		for i := 0; i < 2; i++ {
			if _, err := c.ReadFile("/f", "j"); err != nil {
				t.Fatalf("scan %d: %v", i, err)
			}
		}
		if got := obs.count(); got != 8 {
			t.Errorf("two uncached scans fetched %d blocks, want 8", got)
		}
		if st := c.CacheStats(); st != (blockcache.Stats{}) {
			t.Errorf("cache off but stats non-zero: %+v", st)
		}
	})
}

// TestBlockCacheFailoverInvalidatesByAddr kills a datanode mid-workload;
// the failover path must both serve the read and drop that node's cached
// blocks.
func TestBlockCacheFailoverInvalidatesByAddr(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 4})
		defer mc.Close()
		c := mc.client(t, client.WithBlockCache(64<<20))
		defer c.Close()
		data := writeBlocky(t, c, "/f", 8, 4096, 2)
		if _, err := c.ReadFile("/f", "j"); err != nil {
			t.Fatalf("warm scan: %v", err)
		}
		mc.DataNodes[0].Close()
		c.ForgetDataNode("dn0")
		got, err := c.ReadFile("/f", "j")
		if err != nil {
			t.Fatalf("post-failure scan: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("post-failure scan corrupted")
		}
	})
}
