package client_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/dfs"
	"repro/internal/dfs/client"
	"repro/internal/dfs/datanode"
	"repro/internal/transport"
)

// ReadFile's result is allocated without zero-fill, so a byte no block
// wrote would reach the caller as whatever the heap held before (in race
// builds, the poison bufpool.MakeNoZero fills it with). This test reads
// files through every way a block reaches its slot of the result —
// received straight into it, copied from a cache hit, overwritten by a
// failover after a replica failed its checksum — and requires the exact
// bytes written. A replica of the wrong length must fail the read with
// dfs.ErrBlockLength and no result at all.
func TestReadFileReturnsOnlyWrittenBytes(t *testing.T) {
	eachTransport(t, func(t *testing.T, tcp bool) {
		const (
			blockSize = 256 << 10
			size      = 8*blockSize + blockSize/3 // a short last block
		)
		lc := startLive(t, tcp, 4)
		w := lc.client(t)
		want := patterned(size, 3)
		if err := w.WriteFile("/nz/striped", want, blockSize, 2); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		locs, err := w.Locations("/nz/striped")
		if err != nil || len(locs) != 9 {
			t.Fatalf("Locations: %d blocks, %v; want 9", len(locs), err)
		}
		readBack := func(t *testing.T, c *client.Client, what string) {
			t.Helper()
			got, err := c.ReadFile("/nz/striped", "")
			if err != nil {
				t.Fatalf("%s: ReadFile: %v", what, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: ReadFile returned %d bytes that differ from the %d written", what, len(got), len(want))
			}
		}

		t.Run("striped", func(t *testing.T) {
			readBack(t, lc.client(t), "every block received into its slot")
		})

		t.Run("cache-hits-and-misses", func(t *testing.T) {
			c := lc.client(t, client.WithBlockCache(64<<20))
			for i := 0; i < len(locs); i += 2 {
				if _, err := c.ReadBlock(locs[i], ""); err != nil {
					t.Fatalf("warming block %d: %v", i, err)
				}
			}
			readBack(t, c, "even blocks from the cache, odd ones fetched")
			if s := c.CacheStats(); s.Hits != 5 || s.Misses != 5+4 {
				t.Fatalf("cache hits %d, misses %d; want 5 hits among the 9 blocks after 5 warming misses", s.Hits, s.Misses)
			}
			readBack(t, c, "every block from the cache")
		})

		t.Run("checksum-failover", func(t *testing.T) {
			// A reader local to a holder of a mid-file block prefers that
			// replica; corrupting it there forces a failover mid-stripe.
			dn, mid := holderOfMidBlock(t, lc, locs)
			if !dn.CorruptReplica(locs[mid].Block.ID) {
				t.Fatalf("%s holds no replica of block %d to corrupt", dn.Addr(), mid)
			}
			c := lc.client(t, client.WithLocalAddr(dn.Addr()))
			readBack(t, c, "a mid-file block failing over after a bad checksum")
			if c.ChecksumFailures() == 0 {
				t.Fatal("no block failed its checksum: the failover was never exercised")
			}
		})

		t.Run("wrong-length-replica", func(t *testing.T) {
			if err := w.WriteFile("/nz/short", want, blockSize, 2); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			short, err := w.Locations("/nz/short")
			if err != nil {
				t.Fatalf("Locations: %v", err)
			}
			// Every holder of block 4 now stores one byte less than the
			// namenode located: no replica can fill its slot.
			lb := short[4]
			data := want[4*blockSize : 5*blockSize-1]
			for _, addr := range lb.Nodes {
				dc, err := transport.Dial(lc.Clock, lc.net, addr)
				if err != nil {
					t.Fatalf("dial %s: %v", addr, err)
				}
				_, err = transport.Call[dfs.WriteBlockResp](dc, "dn.writeBlock", dfs.WriteBlockReq{
					Block: dfs.Block{ID: lb.Block.ID, Size: int64(len(data))}, Data: data,
				})
				dc.Close()
				if err != nil {
					t.Fatalf("overwrite block 4 on %s: %v", addr, err)
				}
			}
			got, err := lc.client(t).ReadFile("/nz/short", "")
			if !errors.Is(err, dfs.ErrBlockLength) {
				t.Fatalf("ReadFile err = %v, want dfs.ErrBlockLength", err)
			}
			if got != nil {
				t.Fatalf("a failed ReadFile returned %d bytes, want a nil result", len(got))
			}
		})
	})
}

// holderOfMidBlock finds a datanode holding a replica of a block that is
// neither the first nor the last of locs, and that block's index.
func holderOfMidBlock(t *testing.T, lc *liveCluster, locs []dfs.LocatedBlock) (*datanode.DataNode, int) {
	t.Helper()
	for i := len(locs) / 2; i < len(locs)-1; i++ {
		for _, dn := range lc.DataNodes {
			for _, addr := range locs[i].Nodes {
				if addr == dn.Addr() {
					return dn, i
				}
			}
		}
	}
	t.Fatal("no datanode holds a mid-file block")
	return nil, 0
}
