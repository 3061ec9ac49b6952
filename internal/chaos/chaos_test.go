package chaos

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/simclock"
	"repro/internal/storage"
)

// wallTimeout bounds each scenario's real (not simulated) runtime.
const wallTimeout = 120 * time.Second

func runChaos(t *testing.T, cfg cluster.Config, fn func(v *simclock.Virtual, h *Harness)) {
	t.Helper()
	err := cluster.RunVirtual(wallTimeout, func(v *simclock.Virtual) {
		h, err := Start(v, cfg)
		if err != nil {
			t.Errorf("chaos start: %v", err)
			return
		}
		defer h.Close()
		fn(v, h)
	})
	if err != nil {
		t.Fatal(err)
	}
}

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

// filedata is file i's n bytes. No two blocks of a file at
// power-of-two offsets hold the same bytes (251 divides no power of
// two), so a replica that ends up with another block's bytes is caught.
func filedata(i, n int) []byte {
	b := make([]byte, n)
	for k := range b {
		b[k] = byte('a' + i + k%251)
	}
	return b
}

// checkInvariantReplicaBytes requires every replica of path to hold the
// file's bytes: each located block is read from each of its holders,
// pinned to that node, so a failover to a healthy replica cannot hide a
// bad one. It reads everything twice and holds every response to the
// end, so each read takes a buffer of its own from the pool: a stored
// replica's buffer that was wrongly given back to the pool is handed to
// one of them, and the second pass finds that replica holding another
// block's bytes. The reads go through a fresh client, which holds no
// connection a fault closed. Scenarios that write real bytes and inject
// no corruption end with it.
func checkInvariantReplicaBytes(t *testing.T, h *Harness, path string, want []byte) {
	t.Helper()
	c, err := h.Client()
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer c.Close()
	lbs, err := c.Locations(path)
	if err != nil {
		t.Fatalf("locations of %s: %v", path, err)
	}
	var held []dfs.ReadBlockResp
	for pass := 0; pass < 2; pass++ {
		for _, lb := range lbs {
			for _, addr := range lb.Nodes {
				pinned := lb
				pinned.Nodes = []string{addr}
				resp, err := c.ReadBlock(pinned, "")
				if err != nil {
					t.Fatalf("%s block %d on %s: %v", path, lb.Block.ID, addr, err)
				}
				if !bytes.Equal(resp.Data, want[lb.Offset:lb.Offset+lb.Block.Size]) {
					t.Fatalf("%s block %d on %s does not hold the file's bytes", path, lb.Block.ID, addr)
				}
				held = append(held, resp)
			}
		}
	}
	for i := range held {
		held[i].Release()
	}
}

// checkInvariantReplicaMemory is the arena accounting invariant, the
// part of "no two replicas share memory" reads cannot see: a replica
// freed early whose slot a later write takes back reads correctly from
// both holders. Once traffic has settled, each datanode holds exactly
// one arena slot per stored replica with bytes, and no two replicas
// name the same slot; once the datanodes are closed, no slot is held
// and no chunk is mapped. It closes the datanodes, so a scenario calls
// it last, after checkInvariantReplicaBytes.
func checkInvariantReplicaMemory(t *testing.T, v *simclock.Virtual, h *Harness) {
	t.Helper()
	settle := func(want string, ok func(storage.Memory) bool) {
		t.Helper()
		deadline := v.Now().Add(10 * time.Second)
		for _, dn := range h.Cluster.DataNodes {
			for m := dn.ReplicaMemory(); !ok(m); m = dn.ReplicaMemory() {
				if v.Now().After(deadline) {
					t.Fatalf("%s replica memory %+v, want %s", dn.Addr(), m, want)
				}
				v.Sleep(50 * time.Millisecond)
			}
		}
	}
	settle("one unshared slot per stored replica", func(m storage.Memory) bool {
		return m.Shared == 0 && m.Slots == m.Replicas
	})
	for _, dn := range h.Cluster.DataNodes {
		dn.Close()
	}
	settle("no slot held and no chunk mapped after Close", func(m storage.Memory) bool {
		return m.Slots == 0 && m.Chunks == 0
	})
}

// A datanode that dies mid-traffic must not lose acked data: every write
// that succeeded reads back intact, the replication loop restores the
// target replica count on the survivors, and the revived node rejoins
// the cluster.
func TestDataNodeCrashMidTrafficNoAckedDataLost(t *testing.T) {
	runChaos(t, cluster.Config{Nodes: 4, Seed: 42}, func(v *simclock.Virtual, h *Harness) {
		c, err := h.Client()
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		defer c.Close()

		const blockSize = 256 << 10
		const nfiles = 5
		// dn1 dies while the files stream in. The namenode keeps handing
		// out allocations naming it until the heartbeat expires, so the
		// writer's per-block failover carries the traffic.
		h.Fabric.CrashAfter("dn1", 300*time.Millisecond)
		for i := 0; i < nfiles; i++ {
			data := filedata(i, 4*blockSize)
			if err := c.WriteFile(fmt.Sprintf("/chaos/f%d", i), data, blockSize, 2); err != nil {
				t.Fatalf("write f%d: %v", i, err)
			}
		}
		for i := 0; i < nfiles; i++ {
			got, err := c.ReadFile(fmt.Sprintf("/chaos/f%d", i), "")
			if err != nil {
				t.Fatalf("read back f%d: %v", i, err)
			}
			if !bytes.Equal(got, filedata(i, 4*blockSize)) {
				t.Fatalf("f%d corrupted after crash: %d bytes", i, len(got))
			}
		}

		// Heartbeat expiry (10s) plus the replication sweep must restore
		// two live replicas per block without the dead node.
		waitUntil(t, v, time.Minute, func() bool {
			for i := 0; i < nfiles; i++ {
				lbs, err := c.Locations(fmt.Sprintf("/chaos/f%d", i))
				if err != nil {
					return false
				}
				for _, lb := range lbs {
					live := 0
					for _, n := range lb.Nodes {
						if n == "dn1" {
							return false
						}
						live++
					}
					if live < 2 {
						return false
					}
				}
			}
			return true
		}, "re-replication onto survivors")

		// The healed node re-registers with its full inventory and counts
		// as live again.
		if err := h.ReviveDataNode(1); err != nil {
			t.Fatalf("revive dn1: %v", err)
		}
		waitUntil(t, v, time.Minute, func() bool {
			for _, addr := range h.Cluster.NameNode.LiveDataNodes() {
				if addr == "dn1" {
					return true
				}
			}
			return false
		}, "revived node live at namenode")
		for i := 0; i < nfiles; i++ {
			checkInvariantReplicaBytes(t, h, fmt.Sprintf("/chaos/f%d", i), filedata(i, 4*blockSize))
		}
		checkInvariantReplicaMemory(t, v, h)
	})
}

// A migrate batch lost to a partition must not wedge anything: the job
// runs from disk, its eviction clears the master's dangling assignment,
// and after heal the next job migrates end-to-end.
func TestPartitionedSlaveConvergesAfterHeal(t *testing.T) {
	runChaos(t, cluster.Config{Nodes: 4, Seed: 7, Mode: cluster.ModeIgnem}, func(v *simclock.Virtual, h *Harness) {
		c, err := h.Client()
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		defer c.Close()
		const blockSize = 1 << 20
		data := filedata(0, 4*blockSize)
		if err := c.WriteFile("/in", data, blockSize, 1); err != nil {
			t.Fatalf("write: %v", err)
		}

		// The namenode cannot reach any slave: every migrate batch for
		// job1 vanishes (the send times out and is counted, not retried).
		h.Fabric.Partition([]string{cluster.NameNodeAddr}, []string{"dn0", "dn1", "dn2", "dn3"})
		resp, err := c.Migrate("job1", []string{"/in"}, true)
		if err != nil {
			t.Fatalf("migrate during partition: %v", err)
		}
		if resp.Blocks != 4 {
			t.Fatalf("migrate enqueued %d blocks, want 4", resp.Blocks)
		}
		if st := h.Cluster.NameNode.Master().Stats(); st.SendErrors == 0 {
			t.Fatal("partition swallowed the batches but SendErrors == 0")
		}
		if got := h.Cluster.SlaveStats(); got.QueuedCmds != 0 || got.PinnedBlocks != 0 {
			t.Fatalf("slaves saw commands through a partition: %+v", got)
		}
		h.Fabric.Heal()
		// The partition also starved heartbeats, so the namenode expired
		// the datanodes; their next heartbeat through the healed fabric
		// restores them.
		waitUntil(t, v, time.Minute, func() bool {
			return len(h.Cluster.NameNode.LiveDataNodes()) == 4
		}, "datanodes live again after heal")

		// job1 runs anyway, reading from disk, and evicts on completion:
		// the master's dangling assignment is released, nothing is stuck.
		if _, err := c.ReadFile("/in", "job1"); err != nil {
			t.Fatalf("read during recovery: %v", err)
		}
		if _, err := c.Evict("job1", []string{"/in"}); err != nil {
			t.Fatalf("evict job1: %v", err)
		}
		st := h.Cluster.SlaveStats()
		if h.Cluster.TotalPinnedBytes() != 0 || st.QueuedCmds != 0 || st.DeferredCmds != 0 {
			t.Fatalf("state stuck after heal: pinned=%d queued=%d deferred=%d",
				h.Cluster.TotalPinnedBytes(), st.QueuedCmds, st.DeferredCmds)
		}

		// The healed fabric carries the next job's migration end-to-end.
		if _, err := c.Migrate("job2", []string{"/in"}, true); err != nil {
			t.Fatalf("migrate after heal: %v", err)
		}
		waitUntil(t, v, time.Minute, func() bool {
			return h.Cluster.SlaveStats().PinnedBlocks == 4
		}, "post-heal migration pins all blocks")
		if _, err := c.ReadFile("/in", "job2"); err != nil {
			t.Fatalf("read job2: %v", err)
		}
		// Implicit eviction releases every block as job2 reads it.
		waitUntil(t, v, time.Minute, func() bool {
			return h.Cluster.TotalPinnedBytes() == 0
		}, "implicit eviction drains pins")
		checkInvariantReplicaBytes(t, h, "/in", data)
		checkInvariantReplicaMemory(t, v, h)
	})
}

// An Ignem master restart while migrations are in flight must not
// double-migrate or strand pins: slaves drop the stale epoch's work, the
// re-issued job pins everything exactly once, and eviction drains it.
func TestMasterRestartMidMigrationConvergesEndToEnd(t *testing.T) {
	runChaos(t, cluster.Config{Nodes: 4, Seed: 9, Mode: cluster.ModeIgnem}, func(v *simclock.Virtual, h *Harness) {
		c, err := h.Client()
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		defer c.Close()
		const blockSize = 8 << 20 // big enough that device reads take real simulated time
		data := filedata(1, 6*blockSize)
		if err := c.WriteFile("/in", data, blockSize, 1); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := c.Migrate("job1", []string{"/in"}, false); err != nil {
			t.Fatalf("migrate: %v", err)
		}
		waitUntil(t, v, time.Minute, func() bool {
			return h.Cluster.SlaveStats().MigratedBlocks >= 1
		}, "first migration lands")

		// Master dies mid-stream. The new epoch's broadcast purges every
		// slave; any in-flight old-epoch read is dropped when it completes.
		if err := h.Cluster.NameNode.RestartMaster(); err != nil {
			t.Fatalf("restart master: %v", err)
		}
		waitUntil(t, v, time.Minute, func() bool {
			return h.Cluster.TotalPinnedBytes() == 0
		}, "epoch purge unpins stale state")

		// The job resubmits against the new master and everything migrates
		// exactly once under the new epoch.
		if _, err := c.Migrate("job1", []string{"/in"}, false); err != nil {
			t.Fatalf("re-migrate: %v", err)
		}
		waitUntil(t, v, 2*time.Minute, func() bool {
			return h.Cluster.SlaveStats().PinnedBlocks == 6
		}, "re-issued migration pins all blocks")
		if got := h.Cluster.TotalPinnedBytes(); got != int64(6*blockSize) {
			t.Fatalf("pinned %d bytes, want %d — a stale migration double-pinned", got, 6*blockSize)
		}
		if _, err := c.Evict("job1", []string{"/in"}); err != nil {
			t.Fatalf("evict: %v", err)
		}
		waitUntil(t, v, time.Minute, func() bool {
			return h.Cluster.TotalPinnedBytes() == 0
		}, "eviction drains the new epoch's pins")
		checkInvariantReplicaBytes(t, h, "/in", data)
		checkInvariantReplicaMemory(t, v, h)
	})
}

// SWIM-style MapReduce traffic keeps completing while a datanode dies
// and the Ignem master restarts mid-run; after the node heals and the
// master's next epoch broadcast reconciles it, no migration is stuck and
// no pinned byte survives the jobs.
func TestSwimTrafficUnderChaos(t *testing.T) {
	runChaos(t, cluster.Config{Nodes: 4, Seed: 11, Mode: cluster.ModeIgnem}, func(v *simclock.Virtual, h *Harness) {
		c, err := h.Client()
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		defer c.Close()
		const jobs = 6
		const inputBytes = 32 << 20
		for i := 0; i < jobs; i++ {
			if err := c.WriteSyntheticFile(fmt.Sprintf("/swim/j%d", i), inputBytes, 0, 2); err != nil {
				t.Fatalf("setup j%d: %v", i, err)
			}
		}

		// The chaos schedule, all on the virtual clock: a datanode dies at
		// 3s, the master restarts at 8s, the node heals at 20s.
		h.Fabric.CrashAfter("dn3", 3*time.Second)
		v.Go(func() {
			v.Sleep(8 * time.Second)
			if err := h.Cluster.NameNode.RestartMaster(); err != nil {
				t.Errorf("restart master: %v", err)
			}
		})
		v.Go(func() {
			v.Sleep(20 * time.Second)
			if err := h.ReviveDataNode(3); err != nil {
				t.Errorf("revive dn3: %v", err)
			}
		})

		wg := simclock.NewWaitGroup(v)
		for i := 0; i < jobs; i++ {
			i := i
			wg.Go(func() {
				v.Sleep(time.Duration(i) * 2 * time.Second)
				if _, err := h.Cluster.Engine.Run(mapreduce.Config{
					ID:            dfs.JobID(fmt.Sprintf("job%d", i)),
					InputPaths:    []string{fmt.Sprintf("/swim/j%d", i)},
					MapRateMBps:   800,
					UseIgnem:      true,
					ImplicitEvict: true,
				}); err != nil {
					t.Errorf("job%d: %v", i, err)
				}
			})
		}
		wg.Wait()

		// The revived node's slave may still hold pre-crash pins under the
		// old epoch (it missed the restart broadcast). The recovery
		// protocol is the master's next epoch broadcast, which now reaches
		// every live node and reconciles the stragglers.
		waitUntil(t, v, time.Minute, func() bool {
			for _, addr := range h.Cluster.NameNode.LiveDataNodes() {
				if addr == "dn3" {
					return true
				}
			}
			return false
		}, "healed node live again")
		if err := h.Cluster.NameNode.RestartMaster(); err != nil {
			t.Fatalf("restart master: %v", err)
		}
		waitUntil(t, v, time.Minute, func() bool {
			st := h.Cluster.SlaveStats()
			return h.Cluster.TotalPinnedBytes() == 0 && st.QueuedCmds == 0 && st.DeferredCmds == 0
		}, "cluster converges: no pins, no stuck migrations")
	})
}

// chaosScenario runs a fixed fault schedule — a lossy client→namenode
// link, a scheduled datanode crash, replica-failover reads, heal — and
// returns a transcript of everything observable: the fabric's event log,
// file contents digests, replica placements, and the simulated clock at
// exit. Two runs with one seed must produce identical transcripts.
func chaosScenario(t *testing.T, seed int64) string {
	var b strings.Builder
	err := cluster.RunVirtual(wallTimeout, func(v *simclock.Virtual) {
		h, err := Start(v, cluster.Config{Nodes: 3, Seed: seed, Mode: cluster.ModeIgnem})
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		defer h.Close()
		c, err := h.Client()
		if err != nil {
			t.Errorf("client: %v", err)
			return
		}
		defer c.Close()

		const blockSize = 512 << 10
		for i := 0; i < 3; i++ {
			if err := c.WriteFile(fmt.Sprintf("/det/f%d", i), filedata(i, 2*blockSize), blockSize, 2); err != nil {
				t.Errorf("write f%d: %v", i, err)
				return
			}
		}

		// Phase 1: requests to the namenode get dropped 30% of the time;
		// the retry path's seeded jitter wades through.
		h.Fabric.SetDrop(ClientAddr, cluster.NameNodeAddr, 0.3)
		for round := 0; round < 5; round++ {
			for i := 0; i < 3; i++ {
				info, err := c.Info(fmt.Sprintf("/det/f%d", i))
				fmt.Fprintf(&b, "info %d/%d: %v %v\n", round, i, info.Size, err)
			}
		}
		h.Fabric.SetDrop(ClientAddr, cluster.NameNodeAddr, 0)

		// Phase 2: a datanode dies on schedule; reads fail over to the
		// surviving replicas.
		h.Fabric.CrashAfter("dn2", 500*time.Millisecond)
		v.Sleep(time.Second)
		for i := 0; i < 3; i++ {
			got, err := c.ReadFile(fmt.Sprintf("/det/f%d", i), "")
			hash := fnv.New64a()
			hash.Write(got)
			fmt.Fprintf(&b, "read f%d: len=%d fnv=%x err=%v\n", i, len(got), hash.Sum64(), err)
		}

		// Phase 3: heal and let the node rejoin.
		if err := h.ReviveDataNode(2); err != nil {
			fmt.Fprintf(&b, "revive err: %v\n", err)
		}
		waitUntil(t, v, time.Minute, func() bool {
			for _, addr := range h.Cluster.NameNode.LiveDataNodes() {
				if addr == "dn2" {
					return true
				}
			}
			return false
		}, "dn2 rejoins")

		for i := 0; i < 3; i++ {
			lbs, err := c.Locations(fmt.Sprintf("/det/f%d", i))
			if err != nil {
				fmt.Fprintf(&b, "locations f%d err: %v\n", i, err)
				continue
			}
			for _, lb := range lbs {
				nodes := append([]string(nil), lb.Nodes...)
				sort.Strings(nodes)
				fmt.Fprintf(&b, "f%d block %d @%d: %v\n", i, lb.Block.ID, lb.Offset, nodes)
			}
		}
		fmt.Fprintf(&b, "clock: %v\n", v.Now().Sub(cluster.SimStart))
		fmt.Fprintf(&b, "fabric events:\n%s\n", strings.Join(h.Fabric.Events(), "\n"))
		for i := 0; i < 3; i++ {
			checkInvariantReplicaBytes(t, h, fmt.Sprintf("/det/f%d", i), filedata(i, 2*blockSize))
		}
		checkInvariantReplicaMemory(t, v, h)
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// The whole chaos stack — fabric drops, crash scheduling, retry jitter,
// failover — replays bit-for-bit under one seed, and a different seed
// actually changes the run.
func TestSeededChaosRunsAreDeterministic(t *testing.T) {
	a := chaosScenario(t, 42)
	b := chaosScenario(t, 42)
	if a != b {
		t.Fatalf("two runs with seed 42 diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if c := chaosScenario(t, 43); c == a {
		t.Fatal("seed 43 reproduced seed 42's transcript exactly — the seed is not wired through")
	}
}

// A slave severed from the fabric across an Ignem master restart holds
// pins under the dead epoch. On revival its datanode probes the master's
// current epoch during re-registration, so the stale pins must be gone
// the moment Reconnect returns — no waiting for the next epoch
// broadcast, which may be arbitrarily far away on an idle master.
func TestRevivedSlaveAdoptsEpochImmediately(t *testing.T) {
	runChaos(t, cluster.Config{Nodes: 4, Seed: 13, Mode: cluster.ModeIgnem}, func(v *simclock.Virtual, h *Harness) {
		c, err := h.Client()
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		defer c.Close()
		const blockSize = 1 << 20
		data := filedata(0, 4*blockSize)
		if err := c.WriteFile("/in", data, blockSize, 1); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := c.Migrate("job1", []string{"/in"}, false); err != nil {
			t.Fatalf("migrate: %v", err)
		}
		waitUntil(t, v, time.Minute, func() bool {
			return h.Cluster.SlaveStats().PinnedBlocks == 4
		}, "migration pins all blocks")

		// Crash a datanode that holds pins, then restart the master: the
		// new-epoch broadcast reaches every slave except the crashed one.
		victim := -1
		for i, dn := range h.Cluster.DataNodes {
			if dn.Slave().PinnedBytes() > 0 {
				victim = i
				break
			}
		}
		if victim < 0 {
			t.Fatal("no datanode holds pinned bytes after migration")
		}
		h.CrashDataNode(victim)
		if err := h.Cluster.NameNode.RestartMaster(); err != nil {
			t.Fatalf("restart master: %v", err)
		}
		waitUntil(t, v, time.Minute, func() bool {
			for i, dn := range h.Cluster.DataNodes {
				if i != victim && dn.Slave().PinnedBytes() > 0 {
					return false
				}
			}
			return true
		}, "reachable slaves purge on the epoch broadcast")
		if h.Cluster.DataNodes[victim].Slave().PinnedBytes() == 0 {
			t.Fatal("crashed slave lost its pins while severed — scenario is vacuous")
		}

		// Revive: Reconnect re-registers and probes the master epoch, so
		// the stale pins must be reconciled by the time it returns.
		if err := h.ReviveDataNode(victim); err != nil {
			t.Fatalf("revive: %v", err)
		}
		if got := h.Cluster.DataNodes[victim].Slave().PinnedBytes(); got != 0 {
			t.Fatalf("revived slave still pins %d bytes under the stale epoch", got)
		}
		// And the revived slave serves the new epoch normally.
		if _, err := c.Migrate("job2", []string{"/in"}, false); err != nil {
			t.Fatalf("migrate after revive: %v", err)
		}
		waitUntil(t, v, time.Minute, func() bool {
			return h.Cluster.SlaveStats().PinnedBlocks == 4
		}, "post-revive migration pins under the new epoch")
		checkInvariantReplicaBytes(t, h, "/in", data)
		checkInvariantReplicaMemory(t, v, h)
	})
}

// A datanode whose reports are lost to the fabric keeps consuming
// report sequence numbers, so the first heartbeat to get through after
// the heal arrives with a gap. The namenode must notice, request a full
// resync, and the datanode's snapshot must re-anchor the stream: after
// one resync the counters go quiet again.
func TestLostReportsTriggerResyncAndConverge(t *testing.T) {
	runChaos(t, cluster.Config{Nodes: 3, Seed: 7}, func(v *simclock.Virtual, h *Harness) {
		c, err := h.Client()
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		defer c.Close()
		const blockSize = 256 << 10
		data := filedata(0, 4*blockSize)
		if err := c.WriteFile("/resync/f0", data, blockSize, 2); err != nil {
			t.Fatalf("write: %v", err)
		}
		before := h.Cluster.NameNode.Stats()

		// Silently eat dn1's reports (the reply path stays open: the
		// calls time out on the datanode side, which requeues deltas and
		// burns sequence numbers). One blocked heartbeat costs a 30s call
		// timeout, so a 70s window guarantees at least two lost reports.
		h.Fabric.Block("dn1", cluster.NameNodeAddr)
		v.Sleep(70 * time.Second)
		h.Fabric.Unblock("dn1", cluster.NameNodeAddr)

		// The first post-heal heartbeat carries the gap; the namenode
		// asks for a snapshot, the datanode delivers it, and dn1 counts
		// as live again.
		waitUntil(t, v, 3*time.Minute, func() bool {
			st := h.Cluster.NameNode.Stats()
			if st.ResyncRequests == before.ResyncRequests || st.FullReports == before.FullReports {
				return false
			}
			for _, addr := range h.Cluster.NameNode.LiveDataNodes() {
				if addr == "dn1" {
					return true
				}
			}
			return false
		}, "gap-triggered resync and revival")

		// Re-anchored: ten more heartbeats flow without tripping
		// another resync, and the file still resolves fully replicated.
		settled := h.Cluster.NameNode.Stats().ResyncRequests
		v.Sleep(10 * time.Second)
		if got := h.Cluster.NameNode.Stats().ResyncRequests; got != settled {
			t.Fatalf("resyncs kept firing after the snapshot: %d -> %d", settled, got)
		}
		lbs, err := c.Locations("/resync/f0")
		if err != nil {
			t.Fatalf("locations: %v", err)
		}
		for _, lb := range lbs {
			if len(lb.Nodes) < 2 {
				t.Fatalf("block %d under-replicated after resync: %v", lb.Block.ID, lb.Nodes)
			}
		}
		checkInvariantReplicaBytes(t, h, "/resync/f0", data)
		checkInvariantReplicaMemory(t, v, h)
	})
}

// A datanode that misses an epoch while severed — the namespace moved
// on without it (a file it replicates was deleted) — must converge on
// Reconnect: the register's snapshot re-anchors sequence and epoch, the
// deleted file stays deleted despite the stale replicas in the
// snapshot, and the surviving file's reference list gets its third
// replica back. No resync round-trips are needed at any point: the
// register IS the snapshot.
func TestReconnectAfterMissedEpochConverges(t *testing.T) {
	runChaos(t, cluster.Config{Nodes: 3, Seed: 9}, func(v *simclock.Virtual, h *Harness) {
		c, err := h.Client()
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		defer c.Close()
		const blockSize = 256 << 10
		// Every node holds every block of both files.
		for i, path := range []string{"/epoch/keep", "/epoch/doomed"} {
			if err := c.WriteFile(path, filedata(i, 3*blockSize), blockSize, 3); err != nil {
				t.Fatalf("write %s: %v", path, err)
			}
		}
		h.CrashDataNode(1)
		waitUntil(t, v, time.Minute, func() bool {
			return len(h.Cluster.NameNode.LiveDataNodes()) == 2
		}, "crashed node expires")
		// The namespace moves on while dn1 is dark.
		if err := c.Delete("/epoch/doomed"); err != nil {
			t.Fatalf("delete: %v", err)
		}

		if err := h.ReviveDataNode(1); err != nil {
			t.Fatalf("revive: %v", err)
		}
		waitUntil(t, v, time.Minute, func() bool {
			lbs, err := c.Locations("/epoch/keep")
			if err != nil {
				return false
			}
			for _, lb := range lbs {
				if len(lb.Nodes) != 3 {
					return false
				}
			}
			return true
		}, "revived node back in the reference lists")

		// The stale replicas in dn1's snapshot must not resurrect the
		// deleted file.
		if _, err := c.Locations("/epoch/doomed"); err == nil {
			t.Fatal("deleted file resolvable again after stale snapshot")
		}
		// And the fresh epoch anchors cleanly: ten more heartbeats from
		// the revived node never trip a resync.
		v.Sleep(10 * time.Second)
		if got := h.Cluster.NameNode.Stats().ResyncRequests; got != 0 {
			t.Fatalf("reconnect path needed %d resync round-trips; the register snapshot should anchor directly", got)
		}
		checkInvariantReplicaBytes(t, h, "/epoch/keep", filedata(0, 3*blockSize))
		checkInvariantReplicaMemory(t, v, h)
	})
}
