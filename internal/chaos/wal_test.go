package chaos

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/ignem"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

// crashPolicy is one migration policy the WAL crash sweep runs under.
type crashPolicy struct {
	// cfg is the journaled cluster, less its WAL backend.
	cfg cluster.Config
	// file seeds the file's bytes.
	file int
	// climbs reports whether every block climbs SSD→RAM once.
	climbs bool
	// minRecords is the fewest records a clean run must journal to
	// cover the policy's whole state machine.
	minRecords int64
}

var (
	// paperCrash pins every block in RAM under an unlimited budget.
	paperCrash = crashPolicy{
		cfg:        cluster.Config{Nodes: 4, Seed: 11, Mode: cluster.ModeIgnem},
		file:       2,
		minRecords: 8,
	}
	// ladderCrash plans every block onto the SSD rung, and climbs it to
	// RAM once the flash pin is confirmed (the job is small).
	ladderCrash = crashPolicy{
		cfg: cluster.Config{
			Nodes: 4, Seed: 11, Mode: cluster.ModeIgnem,
			SSD:             storage.SSDSpec(),
			MigrationPolicy: "ladder",
			TierBudgets:     ignem.TierBudgets{RAM: 64 << 20, SSD: 64 << 20},
		},
		file:       4,
		climbs:     true,
		minRecords: 10,
	}
)

// crashScenario runs the full migration lifecycle — write, migrate (and
// under the ladder, pin on SSD and climb SSD→RAM), read, evict — on a
// journaled cluster whose WAL backend crashes after crashAfter records
// (crashAfter < 0 never crashes). At whatever point the master's log
// dies, the scenario revives the backend and drives RestartMaster, then
// asserts the invariants the journal exists to protect: every block is
// device-copied EXACTLY once (resumed work never double-copies, thanks
// to slave-side idempotency plus the journal's copied markers) and
// climbs exactly once under the ladder, no pin is lost or leaked after
// resume, the file's bytes survive, eviction drains everything, and the
// master's budget ledger is conserved: no SSD charge once every block
// sits in RAM, RAM charges matching the pinned bytes, and both tiers
// empty after eviction. Sweeping crashAfter across every boundary
// covers, among all the others, the mid-ladder interleaving: master
// killed after the SSD promotion became durable but before the RAM
// promotion did. It returns the number of WAL records a crash-free run
// appends, so the sweep can enumerate every boundary.
func crashScenario(t *testing.T, p crashPolicy, crashAfter int64) int64 {
	t.Helper()
	const blockSize = 1 << 20
	const nblocks = 6
	be := wal.NewMem()
	var appended int64
	cfg := p.cfg
	cfg.WALBackend = be
	runChaos(t, cfg, func(v *simclock.Virtual, h *Harness) {
		c, err := h.Client()
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		defer c.Close()
		nn := h.Cluster.NameNode
		data := filedata(p.file, nblocks*blockSize)
		if err := c.WriteFile("/in", data, blockSize, 2); err != nil {
			t.Fatalf("write: %v", err)
		}
		if crashAfter >= 0 {
			be.CrashAfter(crashAfter)
		}

		// recoverIfCrashed models a master restart at the record
		// boundary where the log died: revive the backend (the new
		// process has a working disk holding the surviving prefix) and
		// rebuild planner state purely from the journal.
		recoverIfCrashed := func() bool {
			if !be.Crashed() {
				return false
			}
			be.Revive()
			if err := nn.RestartMaster(); err != nil {
				t.Fatalf("recover at record %d: %v", crashAfter, err)
			}
			return true
		}

		_, err = c.Migrate("job1", []string{"/in"}, false)
		if recoverIfCrashed() {
			if err != nil {
				// The plan never became durable, so the request failed
				// with the dying master; the resubmitted request plans
				// afresh against the recovered one.
				if _, err := c.Migrate("job1", []string{"/in"}, false); err != nil {
					t.Fatalf("re-migrate after recovery: %v", err)
				}
			}
		} else if err != nil {
			t.Fatalf("migrate: %v", err)
		}

		// The log may die (and be recovered) at any point after the plan
		// became durable, including between the ladder's SSD pin
		// confirmation and its RAM climb. Converged means: every block
		// in RAM, the flash rung drained.
		waitUntil(t, v, 2*time.Minute, func() bool {
			if recoverIfCrashed() {
				return false
			}
			st := h.Cluster.SlaveStats()
			return st.PinnedBlocks == nblocks && st.SSDPinnedBlocks == 0
		}, "all blocks pinned in RAM after recovery")
		// Let duplicate queue entries from recovery re-sends drain, and
		// the pin-delta heartbeats reach the master's ledger, before
		// counting: the exactly-once assertions are the heart of the
		// sweep.
		v.Sleep(10 * time.Second)

		st := h.Cluster.SlaveStats()
		if st.MigratedBlocks != nblocks {
			t.Fatalf("crash at record %d: %d fast-path copies for %d blocks — migration not exactly-once",
				crashAfter, st.MigratedBlocks, nblocks)
		}
		climbs := int64(0)
		if p.climbs {
			climbs = nblocks
		}
		if st.ClimbedBlocks != climbs {
			t.Fatalf("crash at record %d: %d climbs, want %d — climb not exactly-once",
				crashAfter, st.ClimbedBlocks, climbs)
		}
		if st.SSDPinnedBytes != 0 {
			t.Fatalf("crash at record %d: %d bytes stranded on the flash rung", crashAfter, st.SSDPinnedBytes)
		}
		if got := h.Cluster.TotalPinnedBytes(); got != int64(nblocks*blockSize) {
			t.Fatalf("crash at record %d: pinned %d bytes, want %d", crashAfter, got, nblocks*blockSize)
		}
		// Budget conservation at the master: no SSD charge outlives the
		// climbs, and RAM charges match residency.
		tiers := nn.Master().Stats().Tiers
		if tiers.SSDUsedBytes != 0 {
			t.Fatalf("crash at record %d: ledger still charges %d SSD bytes after all climbs",
				crashAfter, tiers.SSDUsedBytes)
		}
		if tiers.RAMUsedBytes != int64(nblocks*blockSize) {
			t.Fatalf("crash at record %d: ledger charges %d RAM bytes, want %d",
				crashAfter, tiers.RAMUsedBytes, nblocks*blockSize)
		}

		got, err := c.ReadFile("/in", "job1")
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("crash at record %d: file corrupted after recovery", crashAfter)
		}

		_, err = c.Evict("job1", []string{"/in"})
		if recoverIfCrashed() {
			if err != nil {
				// The evict intent never became durable; the job is still
				// live on the recovered master, so re-evict.
				if _, err := c.Evict("job1", []string{"/in"}); err != nil {
					t.Fatalf("re-evict after recovery: %v", err)
				}
			}
		} else if err != nil {
			t.Fatalf("evict: %v", err)
		}
		waitUntil(t, v, time.Minute, func() bool {
			st := h.Cluster.SlaveStats()
			return h.Cluster.TotalPinnedBytes() == 0 && st.SSDPinnedBytes == 0 &&
				st.QueuedCmds == 0 && st.DeferredCmds == 0
		}, "eviction drains both fast tiers")
		if st := nn.Master().Stats(); st.ActiveJobs != 0 {
			t.Fatalf("crash at record %d: %d jobs still active after eviction", crashAfter, st.ActiveJobs)
		}
		v.Sleep(10 * time.Second)
		tiers = nn.Master().Stats().Tiers
		if tiers.RAMUsedBytes != 0 || tiers.SSDUsedBytes != 0 {
			t.Fatalf("crash at record %d: ledger leaks charges after eviction (ram %d, ssd %d)",
				crashAfter, tiers.RAMUsedBytes, tiers.SSDUsedBytes)
		}
		checkInvariantReplicaBytes(t, h, "/in", data)
		checkInvariantReplicaMemory(t, v, h)
		appended = be.Appends()
	})
	return appended
}

// crashSweep kills the master's WAL at EVERY record boundary a clean
// run under p writes, and asserts the recovered master converges to the
// same exactly-once outcome each time. The virtual clock keeps the
// whole sweep sub-second, so no sampling is needed.
func crashSweep(t *testing.T, p crashPolicy) {
	records := crashScenario(t, p, -1)
	t.Logf("a clean run journals %d records", records)
	if records < p.minRecords {
		t.Fatalf("clean run journaled only %d records; the sweep expects at least %d for the full state machine", records, p.minRecords)
	}
	for k := int64(0); k < records; k++ {
		crashScenario(t, p, k)
	}
}

// The paper policy's crash sweep: one rung, RAM.
func TestWALCrashAtEveryRecordExactlyOnce(t *testing.T) { crashSweep(t, paperCrash) }

// The ladder's crash sweep, which includes the window between a durable
// SSD promotion and its RAM climb.
func TestWALLadderCrashAtEveryRecordExactlyOnce(t *testing.T) { crashSweep(t, ladderCrash) }

// A corrupt replica is detected on read, never returned to the caller,
// reported, and healed: the reading client's end-to-end check catches
// the rot (the datanode served without its own pass because the request
// said the reader verifies), the holder confirms it against its stored
// checksum when asked (dn.verifyBlock), drops and reports the replica,
// the client fails over to the good one, the namenode drops the bad
// location, and the replication sweep restores a healthy copy.
func TestWALChecksumCorruptionReadRecovery(t *testing.T) {
	runChaos(t, cluster.Config{Nodes: 4, Seed: 13, Mode: cluster.ModeIgnem}, func(v *simclock.Virtual, h *Harness) {
		c, err := h.Client()
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		defer c.Close()
		const blockSize = 1 << 20
		data := filedata(3, 2*blockSize)
		if err := c.WriteFile("/f", data, blockSize, 2); err != nil {
			t.Fatalf("write: %v", err)
		}
		lbs, err := c.Locations("/f")
		if err != nil || len(lbs) == 0 || len(lbs[0].Nodes) < 2 {
			t.Fatalf("locations: %v (%v)", err, lbs)
		}
		lb := lbs[0]
		badAddr := lb.Nodes[0]
		var badDN = -1
		for i, dn := range h.Cluster.DataNodes {
			if dn.Addr() == badAddr {
				badDN = i
			}
		}
		if badDN < 0 {
			t.Fatalf("no datanode for %s", badAddr)
		}
		if !h.Cluster.DataNodes[badDN].CorruptReplica(lb.Block.ID) {
			t.Fatalf("corrupt replica %d on %s", lb.Block.ID, badAddr)
		}

		// Aimed straight at the rotten replica, the read fails with the
		// typed checksum error — the corrupt bytes are never served.
		direct := lb
		direct.Nodes = []string{badAddr}
		if _, err := c.ReadBlock(direct, ""); !errors.Is(err, dfs.ErrChecksum) {
			t.Fatalf("read from corrupt replica: err = %v, want checksum error", err)
		}

		// The whole-file read fails over and returns intact bytes.
		got, err := c.ReadFile("/f", "")
		if err != nil {
			t.Fatalf("read with failover: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("failover served wrong bytes")
		}

		// Detection reported the replica; the namenode dropped it and
		// the replication sweep restores a second healthy copy.
		waitUntil(t, v, time.Minute, func() bool {
			return h.Cluster.NameNode.Stats().CorruptReports >= 1
		}, "corrupt-replica report reaches the namenode")
		waitUntil(t, v, 2*time.Minute, func() bool {
			lbs, err := c.Locations("/f")
			if err != nil {
				return false
			}
			return len(lbs) > 0 && len(lbs[0].Nodes) >= 2
		}, "re-replication restores a healthy copy")
		got, err = c.ReadFile("/f", "")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read after heal: %v", err)
		}
	})
}

// The one reader left that cannot check a block end to end is a
// re-replication pull (dn.pullBlock): it asks without ReaderVerifies, so
// the serving datanode verifies before it serves. A pull aimed straight
// at a rotten source replica gets the source's typed checksum error and
// stores nothing; the source drops and reports its replica, and the file
// still reads intact from the healthy holder.
func TestWALNonVerifyingReaderNeverGetsRottenBytes(t *testing.T) {
	const blockSize = 1 << 20
	runChaos(t, cluster.Config{Nodes: 4, Seed: 23, Mode: cluster.ModeIgnem}, func(v *simclock.Virtual, h *Harness) {
		c, err := h.Client()
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		defer c.Close()
		data := filedata(6, 2*blockSize)
		if err := c.WriteFile("/f", data, blockSize, 2); err != nil {
			t.Fatalf("write: %v", err)
		}
		lbs, err := c.Locations("/f")
		if err != nil || len(lbs) == 0 || len(lbs[0].Nodes) != 2 {
			t.Fatalf("locations: %v (%v)", err, lbs)
		}
		lb := lbs[0]
		badAddr := lb.Nodes[0]
		target := ""
		for _, dn := range h.Cluster.DataNodes {
			switch {
			case dn.Addr() == badAddr:
				if !dn.CorruptReplica(lb.Block.ID) {
					t.Fatalf("corrupt replica %d on %s", lb.Block.ID, badAddr)
				}
			case target == "" && !slices.Contains(lb.Nodes, dn.Addr()):
				target = dn.Addr()
			}
		}

		conn, err := transport.Dial(v, h.Fabric.Node(ClientAddr), target)
		if err != nil {
			t.Fatalf("dial %s: %v", target, err)
		}
		defer conn.Close()
		_, err = transport.Call[dfs.PullBlockResp](conn, "dn.pullBlock", dfs.PullBlockReq{Block: lb.Block, From: badAddr})
		if !errors.Is(err, dfs.ErrChecksum) {
			t.Fatalf("pull from rotten replica: err = %v; want the source's checksum error", err)
		}
		// Neither the puller nor the source serves the block any more.
		for _, addr := range []string{target, badAddr} {
			direct := lb
			direct.Nodes = []string{addr}
			if _, err := c.ReadBlock(direct, ""); err == nil {
				t.Errorf("%s serves block %d after the failed pull", addr, lb.Block.ID)
			}
		}
		waitUntil(t, v, time.Minute, func() bool {
			return h.Cluster.NameNode.Stats().CorruptReports >= 1
		}, "the source's own check reports the replica")
		got, err := c.ReadFile("/f", "")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read with failover: %v", err)
		}
		if got := c.ChecksumFailures(); got != 0 {
			t.Errorf("ChecksumFailures = %d: the datanode, not this client, should have caught it", got)
		}
	})
}

// The background scrubber finds rot nobody reads: a corrupted replica
// is scanned against its write-time CRC on the simulated clock,
// dropped, reported, and re-replicated — with no client traffic at all.
func TestWALScrubberFindsSilentCorruption(t *testing.T) {
	runChaos(t, cluster.Config{Nodes: 4, Seed: 17, Mode: cluster.ModeIgnem, ScrubInterval: 5 * time.Second},
		func(v *simclock.Virtual, h *Harness) {
			c, err := h.Client()
			if err != nil {
				t.Fatalf("client: %v", err)
			}
			defer c.Close()
			const blockSize = 1 << 20
			data := filedata(4, 2*blockSize)
			if err := c.WriteFile("/silent", data, blockSize, 2); err != nil {
				t.Fatalf("write: %v", err)
			}
			lbs, err := c.Locations("/silent")
			if err != nil || len(lbs) == 0 {
				t.Fatalf("locations: %v", err)
			}
			badAddr := lbs[0].Nodes[0]
			var bad = -1
			for i, dn := range h.Cluster.DataNodes {
				if dn.Addr() == badAddr {
					bad = i
				}
			}
			if !h.Cluster.DataNodes[bad].CorruptReplica(lbs[0].Block.ID) {
				t.Fatal("corrupt replica")
			}

			waitUntil(t, v, time.Minute, func() bool {
				return h.Cluster.NameNode.Stats().CorruptReports >= 1
			}, "the scrubber's report reaches the namenode")
			waitUntil(t, v, 2*time.Minute, func() bool {
				lbs, err := c.Locations("/silent")
				if err != nil {
					return false
				}
				return len(lbs) > 0 && len(lbs[0].Nodes) >= 2
			}, "re-replication heals the scrubbed replica")
			got, err := c.ReadFile("/silent", "")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read after scrub heal: %v", err)
			}
		})
}

// A one-way partition (master→slaves dead, slaves→master alive) parks
// every migrate batch on the journal's retry queue; after heal the
// retry pump delivers them with NO client re-submission — the silent
// drop the unjournaled master suffered becomes a bounded retry.
func TestWALRetryPumpDeliversThroughOneWayPartition(t *testing.T) {
	be := wal.NewMem()
	runChaos(t, cluster.Config{Nodes: 4, Seed: 19, Mode: cluster.ModeIgnem, WALBackend: be},
		func(v *simclock.Virtual, h *Harness) {
			c, err := h.Client()
			if err != nil {
				t.Fatalf("client: %v", err)
			}
			defer c.Close()
			const blockSize = 1 << 20
			data := filedata(5, 4*blockSize)
			if err := c.WriteFile("/in", data, blockSize, 1); err != nil {
				t.Fatalf("write: %v", err)
			}

			// Commands out of the namenode vanish; heartbeats into it
			// keep flowing, so the datanodes stay live the whole time.
			h.Fabric.PartitionOneWay(
				[]string{cluster.NameNodeAddr}, []string{"dn0", "dn1", "dn2", "dn3"})
			if _, err := c.Migrate("job1", []string{"/in"}, false); err != nil {
				t.Fatalf("migrate during one-way partition: %v", err)
			}
			mst := h.Cluster.NameNode.Master().Stats()
			if mst.SendFailures == 0 || mst.PendingRetries == 0 {
				t.Fatalf("one-way partition parked nothing: %+v", mst)
			}
			if got := h.Cluster.SlaveStats(); got.PinnedBlocks != 0 {
				t.Fatalf("pins through a partition: %+v", got)
			}

			h.Fabric.Heal()
			// No re-migrate: the pump alone must converge the cluster.
			waitUntil(t, v, time.Minute, func() bool {
				return h.Cluster.SlaveStats().PinnedBlocks == 4
			}, "retry pump delivers parked batches after heal")
			mst = h.Cluster.NameNode.Master().Stats()
			if mst.RetriedBatches == 0 || mst.PendingRetries != 0 {
				t.Fatalf("retry stats after heal: %+v", mst)
			}
			if _, err := c.Evict("job1", []string{"/in"}); err != nil {
				t.Fatalf("evict: %v", err)
			}
			waitUntil(t, v, time.Minute, func() bool {
				return h.Cluster.TotalPinnedBytes() == 0
			}, "eviction drains pins")
			checkInvariantReplicaBytes(t, h, "/in", data)
			checkInvariantReplicaMemory(t, v, h)
		})
}
