package client_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/dfs/client"
	"repro/internal/simclock"
)

// writeBlocky writes nBlocks distinct-content blocks of blockSize bytes.
func writeBlocky(t *testing.T, c *client.Client, path string, nBlocks, blockSize, replication int) []byte {
	t.Helper()
	data := make([]byte, 0, nBlocks*blockSize)
	for b := 0; b < nBlocks; b++ {
		data = append(data, bytes.Repeat([]byte{byte('A' + b)}, blockSize)...)
	}
	if err := c.WriteFile(path, data, int64(blockSize), replication); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return data
}

// TestReadFileStripedRoundTrip checks byte-order assembly: with 4 workers
// racing over 8 blocks, the result is still the file's bytes in order.
func TestReadFileStripedRoundTrip(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 6})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()
		data := writeBlocky(t, c, "/f", 8, 4096, 2)
		got, err := c.ReadFile("/f", "j")
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("striped read corrupted: got %d bytes, want %d", len(got), len(data))
		}
	})
}

// readSerially reads blocks one at a time, in order, with ReadBlock: the
// serial reference a striped ReadFile is held to.
func readSerially(t *testing.T, c *client.Client, blocks []dfs.LocatedBlock) {
	t.Helper()
	for _, lb := range blocks {
		resp, err := c.ReadBlock(lb, "j")
		if err != nil {
			t.Fatalf("ReadBlock: %v", err)
		}
		resp.Release()
	}
}

// TestReadFileStripedMatchesSerialReplicaChoice pins the determinism
// contract: a striped read draws the seeded replica-choice rng in block
// order, so with the same seed it reads every block from the same
// replica a serial ReadBlock loop would have picked.
func TestReadFileStripedMatchesSerialReplicaChoice(t *testing.T) {
	readAddrs := func(mc *miniCluster, read func(c *client.Client)) map[dfs.BlockID]string {
		var mu sync.Mutex
		addrs := map[dfs.BlockID]string{}
		c := mc.client(t,
			client.WithReadObserver(func(ev client.BlockReadEvent) {
				mu.Lock()
				addrs[ev.Block] = ev.Addr
				mu.Unlock()
			}))
		defer c.Close()
		read(c)
		return addrs
	}
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 6})
		defer mc.Close()
		setup := mc.client(t)
		defer setup.Close()
		writeBlocky(t, setup, "/f", 8, 4096, 3)
		blocks, err := setup.Locations("/f")
		if err != nil {
			t.Fatalf("Locations: %v", err)
		}
		serial := readAddrs(mc, func(c *client.Client) { readSerially(t, c, blocks) })
		striped := readAddrs(mc, func(c *client.Client) {
			if _, err := c.ReadFile("/f", "j"); err != nil {
				t.Fatalf("ReadFile: %v", err)
			}
		})
		if len(serial) != 8 || len(striped) != 8 {
			t.Fatalf("serial read %d blocks, striped %d, want 8", len(serial), len(striped))
		}
		for id, addr := range serial {
			if striped[id] != addr {
				t.Errorf("block %d: striped read from %s, serial from %s", id, striped[id], addr)
			}
		}
	})
}

// TestReadFileStripedFailsOver kills one replica holder (without waiting
// for namenode expiry) and expects the striped read to fail over.
func TestReadFileStripedFailsOver(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 4})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()
		data := writeBlocky(t, c, "/f", 8, 4096, 2)
		mc.DataNodes[0].Close()
		got, err := c.ReadFile("/f", "j")
		if err != nil {
			t.Fatalf("striped read did not fail over: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("failover read corrupted: got %d bytes", len(got))
		}
	})
}

// TestReadFileStripedAllReplicasDead surfaces the per-block error when no
// replica of some block survives.
func TestReadFileStripedAllReplicasDead(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 3})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()
		writeBlocky(t, c, "/f", 8, 4096, 2)
		for _, dn := range mc.DataNodes {
			dn.Close()
		}
		if _, err := c.ReadFile("/f", "j"); err == nil {
			t.Error("striped read succeeded with every replica dead")
		}
	})
}

// TestReadFileStripedFasterThanSerial compares simulated wall-clock time:
// ReadFile's 4 workers over 8 one-MiB blocks spread across 8 datanodes
// must beat a serial ReadBlock loop by a wide margin.
func TestReadFileStripedFasterThanSerial(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 8})
		defer mc.Close()
		setup := mc.client(t)
		defer setup.Close()
		writeBlocky(t, setup, "/f", 8, 1<<20, 2)

		blocks, err := setup.Locations("/f")
		if err != nil {
			t.Fatalf("Locations: %v", err)
		}
		elapsed := func(read func(c *client.Client)) time.Duration {
			c := mc.client(t)
			defer c.Close()
			start := v.Now()
			read(c)
			return v.Now().Sub(start)
		}
		serial := elapsed(func(c *client.Client) { readSerially(t, c, blocks) })
		striped := elapsed(func(c *client.Client) {
			if _, err := c.ReadFile("/f", "j"); err != nil {
				t.Fatalf("ReadFile: %v", err)
			}
		})
		if striped*2 > serial {
			t.Errorf("striped read %v not ≥2x faster than serial %v", striped, serial)
		}
	})
}

// TestCachedReadersRaceRewrites races cached readers against a writer
// that repeatedly deletes and rewrites the file they scan. Every
// successful scan must observe one complete version of the file — never
// a stale cached mix — and the run is a -race exercise of the cache's
// invalidation and singleflight paths.
func TestCachedReadersRaceRewrites(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 6})
		defer mc.Close()
		c := mc.client(t, client.WithBlockCache(64<<20))
		defer c.Close()
		// The writer runs as its own client (as a second job would): the
		// reading client never sees an invalidation call, and stays
		// correct anyway because block IDs are never reused — a rewritten
		// file's blocks can't alias cached entries of the old version.
		wc := mc.client(t)
		defer wc.Close()

		const nBlocks, blockSize = 4, 4096
		version := func(ver byte) []byte {
			return bytes.Repeat([]byte{ver}, nBlocks*blockSize)
		}
		write := func(ver byte) {
			if err := wc.WriteFile("/race", version(ver), blockSize, 2); err != nil {
				t.Errorf("write version %c: %v", ver, err)
			}
		}
		// A scan may legitimately observe a file mid-write (a prefix of
		// the new version, or an empty just-created file); what it must
		// never observe is a mix of two versions' bytes.
		isOneVersion := func(got []byte) bool {
			for _, b := range got {
				if b != got[0] {
					return false
				}
			}
			return true
		}
		write('a')

		wg := simclock.NewWaitGroup(v)
		for r := 0; r < 4; r++ {
			wg.Go(func() {
				for i := 0; i < 6; i++ {
					got, err := c.ReadFile("/race", "j")
					if err != nil {
						continue // mid-rewrite reads may fail; that's fine
					}
					if !isOneVersion(got) {
						t.Errorf("scan observed a torn file: %d bytes mixing versions", len(got))
					}
				}
			})
		}
		wg.Go(func() {
			for _, ver := range []byte{'b', 'c', 'd'} {
				if err := wc.Delete("/race"); err != nil {
					t.Errorf("delete before %c: %v", ver, err)
				}
				write(ver)
			}
		})
		wg.Wait()

		got, err := c.ReadFile("/race", "j")
		if err != nil || !bytes.Equal(got, version('d')) {
			t.Errorf("final scan: err=%v, stale bytes=%v", err, err == nil && !bytes.Equal(got, version('d')))
		}
	})
}

// TestCachedReadersRaceMigrateEvict races cached readers against a
// Migrate/Evict loop on the file being scanned: content never changes,
// so every scan must return identical bytes while the cache is being
// invalidated underneath.
func TestCachedReadersRaceMigrateEvict(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 6})
		defer mc.Close()
		c := mc.client(t, client.WithBlockCache(64<<20))
		defer c.Close()
		data := writeBlocky(t, c, "/hot", 4, 4096, 2)

		wg := simclock.NewWaitGroup(v)
		for r := 0; r < 4; r++ {
			wg.Go(func() {
				for i := 0; i < 6; i++ {
					got, err := c.ReadFile("/hot", "j")
					if err != nil {
						t.Errorf("scan: %v", err)
						return
					}
					if !bytes.Equal(got, data) {
						t.Error("scan returned wrong bytes during migrate/evict churn")
						return
					}
				}
			})
		}
		wg.Go(func() {
			for i := 0; i < 4; i++ {
				if _, err := c.Migrate("churn", []string{"/hot"}, false); err != nil {
					t.Errorf("Migrate: %v", err)
				}
				v.Sleep(10 * time.Millisecond)
				if _, err := c.Evict("churn", []string{"/hot"}); err != nil {
					t.Errorf("Evict: %v", err)
				}
			}
		})
		wg.Wait()
	})
}

// TestReadFileBlockCounts covers the block counts around the worker
// pool's width (DefaultReadParallelism): none, one (the whole read runs
// on the caller's goroutine), fewer than, exactly and more than the
// pool width, plus a synthetic file. Each read returns exactly the
// written bytes (nil for the empty and synthetic files) and fetches
// every block exactly once.
func TestReadFileBlockCounts(t *testing.T) {
	const blockSize = 4096
	cases := []struct {
		name      string
		blocks    int
		synthetic bool
	}{
		{"empty", 0, false},
		{"one", 1, false},
		{"three", 3, false},
		{"four", 4, false},
		{"nine", 9, false},
		{"synthetic", 3, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runSim(t, func(v *simclock.Virtual) {
				mc := startMini(t, v, miniConfig{nodes: 4})
				defer mc.Close()
				var mu sync.Mutex
				reads := map[dfs.BlockID]int{}
				c := mc.client(t, client.WithReadObserver(func(ev client.BlockReadEvent) {
					mu.Lock()
					reads[ev.Block]++
					mu.Unlock()
				}))
				defer c.Close()
				var want []byte
				if tc.synthetic {
					if err := c.WriteSyntheticFile("/f", int64(tc.blocks*blockSize), blockSize, 2); err != nil {
						t.Fatalf("WriteSyntheticFile: %v", err)
					}
				} else {
					want = writeBlocky(t, c, "/f", tc.blocks, blockSize, 2)
				}
				got, err := c.ReadFile("/f", "j")
				if err != nil {
					t.Fatalf("ReadFile: %v", err)
				}
				if tc.synthetic || tc.blocks == 0 {
					if got != nil {
						t.Errorf("ReadFile = %d bytes, want nil", len(got))
					}
				} else if !bytes.Equal(got, want) {
					t.Errorf("ReadFile = %d bytes, want the %d written", len(got), len(want))
				}
				if len(reads) != tc.blocks {
					t.Errorf("%d distinct blocks read, want %d", len(reads), tc.blocks)
				}
				for id, n := range reads {
					if n != 1 {
						t.Errorf("block %d read %d times, want once", id, n)
					}
				}
			})
		})
	}
}
