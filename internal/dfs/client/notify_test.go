package client_test

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/dfs/client"
	"repro/internal/simclock"
)

// A job whose reads are served from the client block cache must still
// drive implicit eviction: the cache hit bypasses the datanode, so the
// client reports it to the namenode (nn.blockRead), the master routes it
// to the assigned slave (ignem.readNotify), and the slave drops the
// job's reference — end to end over real RPC.
func TestCachedReadStillDrivesImplicitEviction(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 3})
		defer mc.Close()
		c := mc.client(t, client.WithBlockCache(64<<20))
		defer c.Close()

		const blockSize = 1 << 20
		data := bytes.Repeat([]byte{42}, 2*blockSize)
		// Single replica: both jobs' migrations land on the same slave, so
		// each pinned block carries exactly two references.
		if err := c.WriteFile("/input", data, blockSize, 1); err != nil {
			t.Fatalf("write: %v", err)
		}
		for _, job := range []dfs.JobID{"job2", "job3"} {
			if _, err := c.Migrate(job, []string{"/input"}, true); err != nil {
				t.Fatalf("migrate %s: %v", job, err)
			}
		}
		waitUntil(t, v, time.Minute, func() bool {
			return mc.SlaveStats().PinnedBlocks == 2
		}, "both blocks pinned")
		// Pin state must reach the namenode so reads prefer the migrated
		// replica (where the reference lists live).
		waitUntil(t, v, time.Minute, func() bool {
			lbs, err := c.Locations("/input")
			if err != nil {
				return false
			}
			for _, lb := range lbs {
				if !slices.Contains(lb.Tiers, dfs.TierRAM) {
					return false
				}
			}
			return true
		}, "migration state at namenode")

		// job2 reads through the datanode: the slave observes the reads
		// directly and drops job2's references. The payloads land in the
		// client cache.
		if _, err := c.ReadFile("/input", "job2"); err != nil {
			t.Fatalf("read job2: %v", err)
		}
		// job3's reads are cache hits: no datanode sees them. Without the
		// notification its references would pin the blocks until an
		// explicit evict that never comes.
		got, err := c.ReadFile("/input", "job3")
		if err != nil {
			t.Fatalf("read job3: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("cached read returned %d bytes, mismatch", len(got))
		}
		if mc.TotalPinnedBytes() == 0 {
			t.Fatal("blocks unpinned before notifications flushed — the leak scenario never existed")
		}

		c.FlushReadNotifications()
		waitUntil(t, v, time.Minute, func() bool {
			return mc.TotalPinnedBytes() == 0
		}, "cached job's references released")
		if st := mc.NameNode.Master().Stats(); st.ReadNotifies != 2 {
			t.Errorf("master ReadNotifies = %d, want 2", st.ReadNotifies)
		}
	})
}
