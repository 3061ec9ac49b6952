package client_test

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/dfs/client"
	"repro/internal/dfs/datanode"
	"repro/internal/simclock"
)

// miniCluster is a cluster on the in-memory network.
type miniCluster struct{ *cluster.Cluster }

type miniConfig struct {
	nodes  int
	allRAM bool
}

// startMini must run on a simulation goroutine.
func startMini(t *testing.T, v *simclock.Virtual, cfg miniConfig) *miniCluster {
	t.Helper()
	if cfg.nodes == 0 {
		cfg.nodes = 4
	}
	ccfg := cluster.Config{Nodes: cfg.nodes, Seed: 7}
	if cfg.allRAM {
		ccfg.Mode = cluster.ModeInputsInRAM
	}
	c, err := cluster.Start(v, ccfg)
	if err != nil {
		t.Fatalf("cluster start: %v", err)
	}
	return &miniCluster{c}
}

func (mc *miniCluster) client(t *testing.T, opts ...client.Option) *client.Client {
	t.Helper()
	c, err := mc.Client(opts...)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	return c
}

// runSim runs fn as the root simulation goroutine and fails the test if
// the virtual-time simulation stalls in real time.
func runSim(t *testing.T, fn func(v *simclock.Virtual)) {
	t.Helper()
	if err := cluster.RunVirtual(120*time.Second, fn); err != nil {
		t.Fatal(err)
	}
}

// waitUntil polls cond under virtual time.
func waitUntil(t *testing.T, v *simclock.Virtual, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := v.Now().Add(timeout)
	for !cond() {
		if v.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		v.Sleep(50 * time.Millisecond)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()

		data := bytes.Repeat([]byte("0123456789abcdef"), 1000) // 16 KB
		if err := c.WriteFile("/data/f1", data, 4096, 2); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		info, err := c.Info("/data/f1")
		if err != nil {
			t.Fatalf("Info: %v", err)
		}
		if info.Size != int64(len(data)) || !info.Complete {
			t.Errorf("info = %+v", info)
		}
		got, err := c.ReadFile("/data/f1", "job1")
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("round trip corrupted: got %d bytes, want %d", len(got), len(data))
		}
	})
}

func TestReplicasOnDistinctNodes(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 5})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()

		if err := c.WriteSyntheticFile("/f", 10*dfs.DefaultBlockSize, 0, 3); err != nil {
			t.Fatalf("WriteSyntheticFile: %v", err)
		}
		blocks, err := c.Locations("/f")
		if err != nil {
			t.Fatalf("Locations: %v", err)
		}
		if len(blocks) != 10 {
			t.Fatalf("got %d blocks, want 10", len(blocks))
		}
		for _, lb := range blocks {
			if len(lb.Nodes) != 3 {
				t.Errorf("block %d has %d replicas, want 3", lb.Block.ID, len(lb.Nodes))
			}
			seen := map[string]bool{}
			for _, n := range lb.Nodes {
				if seen[n] {
					t.Errorf("block %d has duplicate replica on %s", lb.Block.ID, n)
				}
				seen[n] = true
			}
		}
	})
}

func TestReplicationCappedByClusterSize(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 2})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()
		if err := c.WriteSyntheticFile("/f", 1<<20, 0, 3); err != nil {
			t.Fatalf("WriteSyntheticFile: %v", err)
		}
		blocks, _ := c.Locations("/f")
		if len(blocks[0].Nodes) != 2 {
			t.Errorf("replicas = %d, want 2 (cluster size)", len(blocks[0].Nodes))
		}
	})
}

func TestMigrateThenReadFromMemory(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()

		if err := c.WriteSyntheticFile("/input", 4*dfs.DefaultBlockSize, 0, 2); err != nil {
			t.Fatalf("write: %v", err)
		}
		resp, err := c.Migrate("job1", []string{"/input"}, false)
		if err != nil {
			t.Fatalf("Migrate: %v", err)
		}
		if resp.Blocks != 4 {
			t.Errorf("migrate enqueued %d blocks, want 4", resp.Blocks)
		}
		waitUntil(t, v, time.Minute, func() bool {
			return mc.SlaveStats().PinnedBlocks == 4
		}, "all blocks pinned")

		// Wait for pin state to reach the namenode via heartbeats.
		waitUntil(t, v, time.Minute, func() bool {
			blocks, err := c.Locations("/input")
			if err != nil {
				return false
			}
			for _, lb := range blocks {
				if !slices.Contains(lb.Tiers, dfs.TierRAM) {
					return false
				}
			}
			return true
		}, "migration state at namenode")

		var evmu sync.Mutex
		var events []client.BlockReadEvent
		c2 := mc.client(t, client.WithReadObserver(func(ev client.BlockReadEvent) {
			evmu.Lock()
			events = append(events, ev)
			evmu.Unlock()
		}))
		defer c2.Close()
		if _, err := c2.ReadFile("/input", "job1"); err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		for _, ev := range events {
			if !ev.FromMemory {
				t.Errorf("block %d read from disk after migration", ev.Block)
			}
		}
		if _, err := c.Evict("job1", []string{"/input"}); err != nil {
			t.Fatalf("Evict: %v", err)
		}
		waitUntil(t, v, time.Minute, func() bool {
			return mc.TotalPinnedBytes() == 0
		}, "eviction")
	})
}

func TestMigratedReadsFasterThanCold(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()

		if err := c.WriteSyntheticFile("/cold", dfs.DefaultBlockSize, 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteSyntheticFile("/hot", dfs.DefaultBlockSize, 0, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Migrate("j", []string{"/hot"}, false); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, v, time.Minute, func() bool {
			return mc.SlaveStats().PinnedBlocks == 1
		}, "pin")

		start := v.Now()
		if _, err := c.ReadFile("/cold", "j"); err != nil {
			t.Fatal(err)
		}
		cold := v.Now().Sub(start)
		start = v.Now()
		if _, err := c.ReadFile("/hot", "j"); err != nil {
			t.Fatal(err)
		}
		hot := v.Now().Sub(start)
		// A single uncontended HDD stream is only ~6x slower than RAM for
		// a remote reader (network transfer bounds the hot read); under
		// the concurrency of real workloads the gap is far larger.
		if hot*4 > cold {
			t.Errorf("migrated read %v not clearly faster than cold %v", hot, cold)
		}
	})
}

func TestImplicitEvictionViaReadPath(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()

		if err := c.WriteSyntheticFile("/in", dfs.DefaultBlockSize, 0, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Migrate("j", []string{"/in"}, true); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, v, time.Minute, func() bool {
			for _, dn := range mc.DataNodes {
				if dn.Slave().Stats().PinnedBlocks == 1 {
					return true
				}
			}
			return false
		}, "pin")
		if _, err := c.ReadFile("/in", "j"); err != nil {
			t.Fatal(err)
		}
		if pinned := mc.TotalPinnedBytes(); pinned != 0 {
			t.Errorf("implicit eviction left %d bytes pinned", pinned)
		}
	})
}

func TestLocalityPreference(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 4})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()

		if err := c.WriteSyntheticFile("/f", dfs.DefaultBlockSize, 0, 3); err != nil {
			t.Fatal(err)
		}
		blocks, _ := c.Locations("/f")
		local := blocks[0].Nodes[0]
		var events []client.BlockReadEvent
		lc := mc.client(t,
			client.WithLocalAddr(local),
			client.WithReadObserver(func(ev client.BlockReadEvent) { events = append(events, ev) }))
		defer lc.Close()
		if _, err := lc.ReadFile("/f", "j"); err != nil {
			t.Fatal(err)
		}
		if len(events) != 1 || events[0].Addr != local || !events[0].Local {
			t.Errorf("read not local: %+v", events)
		}
	})
}

func TestInputsInRAMMode(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{allRAM: true})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()
		if err := c.WriteSyntheticFile("/f", dfs.DefaultBlockSize, 0, 1); err != nil {
			t.Fatal(err)
		}
		start := v.Now()
		if _, err := c.ReadFile("/f", "j"); err != nil {
			t.Fatal(err)
		}
		if d := v.Now().Sub(start); d > 300*time.Millisecond {
			t.Errorf("vmtouch-mode read took %v, want RAM speed", d)
		}
	})
}

func TestDeleteAndList(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()
		for i := 0; i < 3; i++ {
			if err := c.WriteSyntheticFile(fmt.Sprintf("/a/f%d", i), 1<<20, 0, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.WriteSyntheticFile("/b/g", 1<<20, 0, 1); err != nil {
			t.Fatal(err)
		}
		files, err := c.List("/a/")
		if err != nil || len(files) != 3 {
			t.Fatalf("List = %d files, err %v", len(files), err)
		}
		if err := c.Delete("/a/f0"); err != nil {
			t.Fatal(err)
		}
		files, _ = c.List("/a/")
		if len(files) != 2 {
			t.Errorf("after delete: %d files", len(files))
		}
		if _, err := c.Info("/a/f0"); err == nil {
			t.Error("Info succeeded on deleted file")
		}
	})
}

func TestCreateErrors(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()
		if err := c.WriteSyntheticFile("/dup", 1<<20, 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteFile("/dup", []byte("x"), 0, 0); err == nil {
			t.Error("duplicate create succeeded")
		}
		if _, err := c.ReadFile("/missing", "j"); err == nil {
			t.Error("read of missing file succeeded")
		}
		if err := c.WriteFile("", []byte("x"), 0, 0); err == nil {
			t.Error("empty path accepted")
		}
	})
}

func TestDataNodeDeathFailover(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 3})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()

		if err := c.WriteSyntheticFile("/f", dfs.DefaultBlockSize, 0, 2); err != nil {
			t.Fatal(err)
		}
		blocks, _ := c.Locations("/f")
		victim := blocks[0].Nodes[0]
		for _, dn := range mc.DataNodes {
			if dn.Addr() == victim {
				dn.Close()
			}
		}
		// Wait for the namenode to expire the dead node.
		waitUntil(t, v, time.Minute, func() bool {
			bs, err := c.Locations("/f")
			return err == nil && len(bs[0].Nodes) == 1
		}, "expiry")
		c.ForgetDataNode(victim)
		if _, err := c.ReadFile("/f", "j"); err != nil {
			t.Errorf("read after node death: %v", err)
		}
	})
}

func TestMasterRestartPurgesSlaves(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()

		if err := c.WriteSyntheticFile("/f", 2*dfs.DefaultBlockSize, 0, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Migrate("j1", []string{"/f"}, false); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, v, time.Minute, func() bool {
			return mc.SlaveStats().PinnedBlocks == 2
		}, "pin")

		if err := mc.NameNode.RestartMaster(); err != nil {
			t.Fatalf("restart master: %v", err)
		}
		// Next command batch (for a new job) carries the new epoch and
		// purges stale reference lists on the slaves it reaches.
		if err := c.WriteSyntheticFile("/g", dfs.DefaultBlockSize, 0, len(mc.DataNodes)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Migrate("j2", []string{"/g"}, false); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, v, time.Minute, func() bool {
			return mc.TotalPinnedBytes() == dfs.DefaultBlockSize
		}, "purge+remigrate")
	})
}

func TestSlaveProcessRestartKeepsServing(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()

		if err := c.WriteSyntheticFile("/f", dfs.DefaultBlockSize, 0, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Migrate("j1", []string{"/f"}, false); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, v, time.Minute, func() bool {
			return mc.SlaveStats().PinnedBlocks > 0
		}, "pin")
		for _, dn := range mc.DataNodes {
			dn.RestartSlaveProcess()
		}
		if mc.TotalPinnedBytes() != 0 {
			t.Error("slave restart kept pinned memory")
		}
		// Data is still readable from disk after the slave restarts.
		if _, err := c.ReadFile("/f", "j1"); err != nil {
			t.Errorf("read after slave restart: %v", err)
		}
	})
}

func TestReadFailsOverWithoutExpiry(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 3})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()

		if err := c.WriteSyntheticFile("/f", dfs.DefaultBlockSize, 0, 2); err != nil {
			t.Fatal(err)
		}
		blocks, _ := c.Locations("/f")
		// Kill one replica holder; do NOT wait for namenode expiry. The
		// client must fail over to the surviving replica on its own.
		victim := blocks[0].Nodes[0]
		for _, dn := range mc.DataNodes {
			if dn.Addr() == victim {
				dn.Close()
			}
		}
		if _, err := c.ReadFile("/f", "j"); err != nil {
			t.Errorf("read did not fail over: %v", err)
		}
	})
}

func TestReadAllReplicasDead(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 2})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()
		if err := c.WriteSyntheticFile("/f", 1<<20, 0, 2); err != nil {
			t.Fatal(err)
		}
		for _, dn := range mc.DataNodes {
			dn.Close()
		}
		if _, err := c.ReadFile("/f", "j"); err == nil {
			t.Error("read succeeded with every replica dead")
		}
	})
}

func TestReReplicationAfterNodeDeath(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 4})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()

		data := bytes.Repeat([]byte("r"), 8192)
		if err := c.WriteFile("/f", data, 4096, 3); err != nil {
			t.Fatal(err)
		}
		blocks, _ := c.Locations("/f")
		victim := blocks[0].Nodes[0]
		for _, dn := range mc.DataNodes {
			if dn.Addr() == victim {
				dn.Close()
			}
		}
		// Namenode expires the node (~10s), then the replication sweep
		// directs a surviving holder's copy to a fresh node.
		waitUntil(t, v, 2*time.Minute, func() bool {
			lbs, err := c.Locations("/f")
			if err != nil {
				return false
			}
			for _, lb := range lbs {
				if len(lb.Nodes) != 3 {
					return false
				}
				for _, n := range lb.Nodes {
					if n == victim {
						return false
					}
				}
			}
			return true
		}, "re-replication to 3 live replicas")

		// The repaired replicas carry the real bytes.
		got, err := c.ReadFile("/f", "j")
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("read after re-replication: %d bytes, err %v", len(got), err)
		}
	})
}

func TestDataNodeRestartReconcilesLocations(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 3})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()

		data := bytes.Repeat([]byte("z"), 4096)
		if err := c.WriteFile("/f", data, 2048, 2); err != nil {
			t.Fatal(err)
		}
		blocks, _ := c.Locations("/f")
		victimAddr := blocks[0].Nodes[0]
		for i, dn := range mc.DataNodes {
			if dn.Addr() == victimAddr {
				// The whole process dies and comes back EMPTY (fresh
				// block store), re-registering under the same address.
				dn.Close()
				fresh, err := datanode.New(v, mc.Net, datanode.Config{
					Addr:         victimAddr,
					NameNodeAddr: cluster.NameNodeAddr,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.Start(); err != nil {
					t.Fatal(err)
				}
				mc.DataNodes[i] = fresh
			}
		}
		c.ForgetDataNode(victimAddr)

		// Registration carried an empty block report, so the namenode
		// must have dropped the stale locations immediately.
		lbs, err := c.Locations("/f")
		if err != nil {
			t.Fatal(err)
		}
		for _, lb := range lbs {
			for _, n := range lb.Nodes {
				if n == victimAddr {
					t.Fatalf("stale location survived restart: %v", lb.Nodes)
				}
			}
		}
		// Re-replication repairs back to 2 replicas using the fresh node.
		waitUntil(t, v, 2*time.Minute, func() bool {
			lbs, err := c.Locations("/f")
			if err != nil {
				return false
			}
			for _, lb := range lbs {
				if len(lb.Nodes) != 2 {
					return false
				}
			}
			return true
		}, "re-replication after empty restart")
		got, err := c.ReadFile("/f", "j")
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("read after restart: %d bytes err %v", len(got), err)
		}
	})
}

func TestWriterErrors(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()
		if err := c.WriteSyntheticFile("/s", -1, 1024, 1); err == nil {
			t.Error("negative synthetic size accepted")
		}
		if err := c.WriteFile("/w", []byte("real bytes"), 1024, 1); err != nil {
			t.Fatal(err)
		}
		// The partial final block was flushed.
		data, err := c.ReadFile("/w", "j")
		if err != nil || string(data) != "real bytes" {
			t.Errorf("read back %q err %v", data, err)
		}
	})
}

func TestMigrateUnknownPathFails(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()
		if _, err := c.Migrate("j", []string{"/nope"}, false); err == nil {
			t.Error("migrate of unknown path accepted")
		}
		// Evicting a job that never migrated is harmless.
		if _, err := c.Evict("ghost", []string{"/nope"}); err != nil {
			t.Errorf("evict of unknown job: %v", err)
		}
	})
}
