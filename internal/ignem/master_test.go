package ignem

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dfs"
	"repro/internal/simclock"
)

// fakeResolver maps paths to located blocks.
type fakeResolver struct {
	files map[string][]dfs.LocatedBlock
	err   error
}

func (r *fakeResolver) Resolve(path string) ([]dfs.LocatedBlock, error) {
	if r.err != nil {
		return nil, r.err
	}
	blocks, ok := r.files[path]
	if !ok {
		return nil, fmt.Errorf("no such file %s", path)
	}
	return blocks, nil
}

// fakeLink records batches per address.
type fakeLink struct {
	mu       sync.Mutex
	migrates map[string][]dfs.MigrateBatch
	evicts   map[string][]dfs.EvictBatch
	notifies map[string][]dfs.ReadNotifyBatch
	err      error
}

func newFakeLink() *fakeLink {
	return &fakeLink{
		migrates: make(map[string][]dfs.MigrateBatch),
		evicts:   make(map[string][]dfs.EvictBatch),
		notifies: make(map[string][]dfs.ReadNotifyBatch),
	}
}

func (l *fakeLink) SendMigrate(addr string, b dfs.MigrateBatch) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.migrates[addr] = append(l.migrates[addr], b)
	return nil
}

func (l *fakeLink) SendEvict(addr string, b dfs.EvictBatch) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.evicts[addr] = append(l.evicts[addr], b)
	return nil
}

func (l *fakeLink) SendReadNotify(addr string, b dfs.ReadNotifyBatch) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.notifies[addr] = append(l.notifies[addr], b)
	return nil
}

func located(id dfs.BlockID, size int64, nodes ...string) dfs.LocatedBlock {
	return dfs.LocatedBlock{Block: dfs.Block{ID: id, Size: size}, Nodes: nodes}
}

func TestMasterMigrateAssignsOneReplicaPerBlock(t *testing.T) {
	res := &fakeResolver{files: map[string][]dfs.LocatedBlock{
		"/a": {located(1, 10, "dn1", "dn2", "dn3"), located(2, 20, "dn1", "dn2", "dn3")},
		"/b": {located(3, 30, "dn2", "dn3")},
	}}
	link := newFakeLink()
	m := NewMaster(res, link, 42)
	resp, err := m.Migrate(dfs.MigrateReq{Job: "j1", Paths: []string{"/a", "/b"}, Implicit: true, SubmitTime: time.Unix(100, 0)})
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if resp.Blocks != 3 || resp.Bytes != 60 {
		t.Errorf("resp = %+v", resp)
	}
	var total int
	seen := map[dfs.BlockID]bool{}
	for _, batches := range link.migrates {
		for _, b := range batches {
			for _, c := range b.Cmds {
				total++
				if seen[c.Block.ID] {
					t.Errorf("block %d assigned to multiple slaves", c.Block.ID)
				}
				seen[c.Block.ID] = true
				if c.JobInputSize != 60 {
					t.Errorf("JobInputSize = %d, want 60", c.JobInputSize)
				}
				if !c.Implicit {
					t.Error("Implicit flag lost")
				}
				if c.Job != "j1" {
					t.Errorf("Job = %s", c.Job)
				}
			}
		}
	}
	if total != 3 {
		t.Errorf("total commands = %d, want 3 (one replica per block)", total)
	}
}

func TestMasterMigrateDuplicateJobBlocksSkipped(t *testing.T) {
	res := &fakeResolver{files: map[string][]dfs.LocatedBlock{
		"/a": {located(1, 10, "dn1")},
	}}
	link := newFakeLink()
	m := NewMaster(res, link, 1)
	if _, err := m.Migrate(dfs.MigrateReq{Job: "j1", Paths: []string{"/a"}}); err != nil {
		t.Fatal(err)
	}
	resp, err := m.Migrate(dfs.MigrateReq{Job: "j1", Paths: []string{"/a"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Blocks != 0 {
		t.Errorf("duplicate migrate enqueued %d blocks", resp.Blocks)
	}
}

func TestMasterMigrateErrors(t *testing.T) {
	link := newFakeLink()
	m := NewMaster(&fakeResolver{files: map[string][]dfs.LocatedBlock{}}, link, 1)
	if _, err := m.Migrate(dfs.MigrateReq{Job: "", Paths: []string{"/a"}}); err == nil {
		t.Error("empty job accepted")
	}
	if _, err := m.Migrate(dfs.MigrateReq{Job: "j", Paths: []string{"/missing"}}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestMasterSkipsBlocksWithNoLiveReplica(t *testing.T) {
	res := &fakeResolver{files: map[string][]dfs.LocatedBlock{
		"/a": {located(1, 10), located(2, 20, "dn1")},
	}}
	link := newFakeLink()
	m := NewMaster(res, link, 1)
	resp, err := m.Migrate(dfs.MigrateReq{Job: "j1", Paths: []string{"/a"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Blocks != 1 {
		t.Errorf("Blocks = %d, want 1 (dead-replica block skipped)", resp.Blocks)
	}
}

func TestMasterEvictRoutesToAssignedSlave(t *testing.T) {
	res := &fakeResolver{files: map[string][]dfs.LocatedBlock{
		"/a": {located(1, 10, "dn1"), located(2, 20, "dn2")},
	}}
	link := newFakeLink()
	m := NewMaster(res, link, 7)
	if _, err := m.Migrate(dfs.MigrateReq{Job: "j1", Paths: []string{"/a"}}); err != nil {
		t.Fatal(err)
	}
	resp, err := m.Evict(dfs.EvictReq{Job: "j1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Blocks != 2 {
		t.Errorf("EvictResp.Blocks = %d, want 2", resp.Blocks)
	}
	var evicted []dfs.BlockID
	for addr, batches := range link.evicts {
		for _, b := range batches {
			for _, c := range b.Cmds {
				evicted = append(evicted, c.Block)
				// Eviction must go where migration went.
				found := false
				for _, mb := range link.migrates[addr] {
					for _, mc := range mb.Cmds {
						if mc.Block.ID == c.Block {
							found = true
						}
					}
				}
				if !found {
					t.Errorf("evict for block %d sent to %s, which never got its migrate", c.Block, addr)
				}
			}
		}
	}
	if len(evicted) != 2 {
		t.Errorf("evicted %d blocks, want 2", len(evicted))
	}
	if st := m.Stats(); st.ActiveJobs != 0 {
		t.Errorf("ActiveJobs = %d after evict", st.ActiveJobs)
	}
}

func TestMasterRestartBumpsEpochAndClearsState(t *testing.T) {
	res := &fakeResolver{files: map[string][]dfs.LocatedBlock{
		"/a": {located(1, 10, "dn1")},
	}}
	link := newFakeLink()
	m := NewMaster(res, link, 7)
	if _, err := m.Migrate(dfs.MigrateReq{Job: "j1", Paths: []string{"/a"}}); err != nil {
		t.Fatal(err)
	}
	before := m.Epoch()
	if err := m.Restart(nil); err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != before+1 {
		t.Errorf("epoch = %d, want %d", m.Epoch(), before+1)
	}
	if st := m.Stats(); st.ActiveJobs != 0 {
		t.Errorf("state survived restart: %+v", st)
	}
	// Evicting the pre-restart job is a harmless no-op that reports no
	// block notifications.
	resp, err := m.Evict(dfs.EvictReq{Job: "j1"})
	if err != nil {
		t.Errorf("Evict after restart: %v", err)
	}
	if resp.Blocks != 0 {
		t.Errorf("EvictResp.Blocks = %d after restart, want 0", resp.Blocks)
	}
}

func TestMasterSendErrorCounted(t *testing.T) {
	res := &fakeResolver{files: map[string][]dfs.LocatedBlock{
		"/a": {located(1, 10, "dn1")},
	}}
	link := newFakeLink()
	link.err = errors.New("unreachable")
	m := NewMaster(res, link, 7)
	if _, err := m.Migrate(dfs.MigrateReq{Job: "j1", Paths: []string{"/a"}}); err != nil {
		t.Fatalf("Migrate should tolerate slave send failure, got %v", err)
	}
	if st := m.Stats(); st.SendErrors != 1 {
		t.Errorf("SendErrors = %d", st.SendErrors)
	}
}

// directLink wires a master straight into slaves, for end-to-end
// master+slave tests under virtual time.
type directLink struct {
	slaves map[string]*Slave
}

func (l *directLink) SendMigrate(addr string, b dfs.MigrateBatch) error {
	s, ok := l.slaves[addr]
	if !ok {
		return errors.New("no slave")
	}
	s.ApplyMigrateBatch(b)
	return nil
}

func (l *directLink) SendEvict(addr string, b dfs.EvictBatch) error {
	s, ok := l.slaves[addr]
	if !ok {
		return errors.New("no slave")
	}
	s.ApplyEvictBatch(b)
	return nil
}

func (l *directLink) SendReadNotify(addr string, b dfs.ReadNotifyBatch) error {
	s, ok := l.slaves[addr]
	if !ok {
		return errors.New("no slave")
	}
	s.ApplyReadNotifyBatch(b)
	return nil
}

func TestMasterSlaveEndToEnd(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: 10 * time.Millisecond}
	s1 := NewSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil, nil)
	s2 := NewSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil, nil)
	link := &directLink{slaves: map[string]*Slave{"dn1": s1, "dn2": s2}}
	res := &fakeResolver{files: map[string][]dfs.LocatedBlock{
		"/input": {
			located(1, 8<<20, "dn1", "dn2"),
			located(2, 8<<20, "dn1", "dn2"),
			located(3, 8<<20, "dn1", "dn2"),
		},
	}}
	m := NewMaster(res, link, 3)
	v.Go(func() {
		if _, err := m.Migrate(dfs.MigrateReq{Job: "job", Paths: []string{"/input"}, SubmitTime: v.Now()}); err != nil {
			t.Errorf("Migrate: %v", err)
		}
	})
	v.Wait()
	pinnedTotal := 0
	for _, s := range link.slaves {
		st := s.Stats()
		pinnedTotal += st.PinnedBlocks
	}
	if pinnedTotal != 3 {
		t.Fatalf("pinned %d blocks across slaves, want 3", pinnedTotal)
	}
	v.Go(func() {
		if _, err := m.Evict(dfs.EvictReq{Job: "job"}); err != nil {
			t.Errorf("Evict: %v", err)
		}
	})
	v.Wait()
	for addr, s := range link.slaves {
		if got := s.PinnedBytes(); got != 0 {
			t.Errorf("%s still pins %d bytes after evict", addr, got)
		}
	}
}

// Property (no leak): for any random sequence of migrate/read/evict where
// every job is eventually evicted, all pinned memory is released.
func TestNoLeakProperty(t *testing.T) {
	f := func(seed int64, nJobs, nBlocks uint8) bool {
		jobs := int(nJobs%6) + 1
		blocksPer := int(nBlocks%5) + 1
		rng := rand.New(rand.NewSource(seed))
		v := simclock.NewVirtual(epoch)
		media := &fakeMedia{clock: v, readTime: time.Millisecond}
		s := NewSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil, nil)

		var blockID dfs.BlockID
		type jobSpec struct {
			id     dfs.JobID
			blocks []dfs.Block
			impl   bool
		}
		var specs []jobSpec
		for j := 0; j < jobs; j++ {
			spec := jobSpec{id: dfs.JobID(fmt.Sprintf("j%d", j)), impl: rng.Intn(2) == 0}
			for b := 0; b < blocksPer; b++ {
				blockID++
				// Shared blocks across jobs with probability 1/3.
				if blockID > 1 && rng.Intn(3) == 0 {
					spec.blocks = append(spec.blocks, dfs.Block{ID: dfs.BlockID(rng.Int63n(int64(blockID)) + 1), Size: 1 << 20})
				} else {
					spec.blocks = append(spec.blocks, dfs.Block{ID: blockID, Size: 1 << 20})
				}
			}
			specs = append(specs, spec)
		}
		v.Go(func() {
			for _, spec := range specs {
				var cmds []dfs.MigrateCmd
				for _, b := range spec.blocks {
					cmds = append(cmds, dfs.MigrateCmd{Block: b, Job: spec.id, JobInputSize: int64(len(spec.blocks)) << 20, SubmitTime: v.Now(), Implicit: spec.impl, Tier: dfs.TierRAM})
				}
				s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: cmds})
				v.Sleep(time.Duration(rng.Intn(20)) * time.Millisecond)
				// The job reads a random subset of its blocks.
				for _, b := range spec.blocks {
					if rng.Intn(2) == 0 {
						s.OnBlockRead(b.ID, spec.id)
					}
				}
			}
			// Every job eventually completes and evicts.
			for _, spec := range specs {
				var cmds []dfs.EvictCmd
				for _, b := range spec.blocks {
					cmds = append(cmds, dfs.EvictCmd{Block: b.ID, Job: spec.id})
				}
				s.ApplyEvictBatch(dfs.EvictBatch{Epoch: 1, Cmds: cmds})
			}
		})
		v.Wait()
		return s.PinnedBytes() == 0 && s.Stats().PinnedBlocks == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// A job whose reads are served from a client block cache never touches a
// datanode, so implicit eviction would leak its references forever.
// The client-side cache-hit notification (nn.blockRead → NotifyRead →
// SendReadNotify) must release them: here job2 reads through the
// datanode path but job3's read is a cache hit reported only via
// NotifyRead, and the pinned block still drains to zero.
func TestNotifyReadDrivesImplicitEvictionForCachedReads(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: time.Millisecond}
	s := NewSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil, nil)
	link := &directLink{slaves: map[string]*Slave{"dn1": s}}
	res := &fakeResolver{files: map[string][]dfs.LocatedBlock{
		"/input": {located(1, 8<<20, "dn1")},
	}}
	m := NewMaster(res, link, 3)
	v.Go(func() {
		if _, err := m.Migrate(dfs.MigrateReq{Job: "job2", Paths: []string{"/input"}, Implicit: true, SubmitTime: v.Now()}); err != nil {
			t.Errorf("migrate job2: %v", err)
		}
		if _, err := m.Migrate(dfs.MigrateReq{Job: "job3", Paths: []string{"/input"}, Implicit: true, SubmitTime: v.Now()}); err != nil {
			t.Errorf("migrate job3: %v", err)
		}
	})
	v.Wait()
	if !s.IsPinned(1) {
		t.Fatal("block 1 should be pinned after both migrations")
	}

	// job2 reads via the datanode: the slave observes it directly.
	v.Go(func() { s.OnBlockRead(1, "job2") })
	v.Wait()
	if !s.IsPinned(1) {
		t.Fatal("job3's reference should keep block 1 pinned")
	}

	// job3's read is a client cache hit the slave never sees. Without the
	// notification this reference leaks until job3's explicit evict.
	v.Go(func() { m.NotifyRead("job3", []dfs.BlockID{1}) })
	v.Wait()
	if s.IsPinned(1) || s.PinnedBytes() != 0 {
		t.Fatalf("cached read notification did not release job3's reference: pinned=%v bytes=%d",
			s.IsPinned(1), s.PinnedBytes())
	}
	if st := m.Stats(); st.ReadNotifies != 1 {
		t.Errorf("ReadNotifies = %d, want 1", st.ReadNotifies)
	}
}

// NotifyRead routes each block to the replica the master assigned it to,
// stamps the current epoch, and silently drops blocks it never assigned
// (unknown job, unknown block, or a pre-restart assignment).
func TestNotifyReadRoutesToAssignedReplicaOnly(t *testing.T) {
	res := &fakeResolver{files: map[string][]dfs.LocatedBlock{
		"/a": {located(1, 10, "dn1"), located(2, 20, "dn2")},
	}}
	link := newFakeLink()
	m := NewMaster(res, link, 42)
	if _, err := m.Migrate(dfs.MigrateReq{Job: "j1", Paths: []string{"/a"}, Implicit: true}); err != nil {
		t.Fatalf("migrate: %v", err)
	}

	m.NotifyRead("j1", []dfs.BlockID{1, 2, 99}) // 99 never migrated
	m.NotifyRead("ghost", []dfs.BlockID{1})     // job unknown to the master

	link.mu.Lock()
	defer link.mu.Unlock()
	total := 0
	for addr, batches := range link.notifies {
		for _, b := range batches {
			if b.Epoch != 1 {
				t.Errorf("notify batch to %s has epoch %d, want 1", addr, b.Epoch)
			}
			for _, cmd := range b.Cmds {
				if got := m.AssignedReplica(cmd.Job, cmd.Block); got != addr {
					t.Errorf("block %d notified at %s but assigned to %q", cmd.Block, addr, got)
				}
				total++
			}
		}
	}
	if total != 2 {
		t.Errorf("delivered %d notify cmds, want 2 (unknown job/block must be dropped)", total)
	}
}

// A notification that lands before the block is migrated marks the
// (job, block) already-read, so the queued migration is discarded
// instead of pinning memory for data the job has already consumed.
func TestNotifyReadBeforeMigrationDiscardsQueuedCommand(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: time.Second}
	s := NewSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil, nil)
	link := &directLink{slaves: map[string]*Slave{"dn1": s}}
	res := &fakeResolver{files: map[string][]dfs.LocatedBlock{
		"/a": {located(1, 8<<20, "dn1"), located(2, 8<<20, "dn1")},
	}}
	m := NewMaster(res, link, 3)
	v.Go(func() {
		if _, err := m.Migrate(dfs.MigrateReq{Job: "j1", Paths: []string{"/a"}, Implicit: true, SubmitTime: v.Now()}); err != nil {
			t.Errorf("migrate: %v", err)
		}
		// Both commands are queued (reads take 1s); the client already hit
		// both blocks in its cache before either migration starts... except
		// the one in flight, which the marker also catches on completion.
		m.NotifyRead("j1", []dfs.BlockID{1, 2})
	})
	v.Wait()
	st := s.Stats()
	if st.PinnedBlocks != 0 || s.PinnedBytes() != 0 {
		t.Fatalf("pinned %d blocks / %d bytes, want none", st.PinnedBlocks, s.PinnedBytes())
	}
	if st.DiscardedMissed != 2 {
		t.Errorf("DiscardedMissed = %d, want 2", st.DiscardedMissed)
	}
}

// TestDiscardedCommandReleasesItsCharge: the master charges the RAM
// budget when it plans a block, and only an unpin report releases the
// charge. A command the slave discards because its job already read the
// block pins nothing, so the discard itself must be reported, or the
// budget stays charged after every job is done.
func TestDiscardedCommandReleasesItsCharge(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: time.Second}
	var m *Master
	s := NewSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil, func(id dfs.BlockID, tier dfs.Tier, pinned bool) {
		if !pinned {
			m.NoteUnpinned("dn1", tier, []dfs.BlockID{id})
		}
	})
	link := &directLink{slaves: map[string]*Slave{"dn1": s}}
	res := &fakeResolver{files: map[string][]dfs.LocatedBlock{
		"/a": {located(1, 8<<20, "dn1"), located(2, 8<<20, "dn1")},
	}}
	m = NewMaster(res, link, 3)
	v.Go(func() {
		if _, err := m.Migrate(dfs.MigrateReq{Job: "j1", Paths: []string{"/a"}, Implicit: true, SubmitTime: v.Now()}); err != nil {
			t.Errorf("migrate: %v", err)
		}
		m.NotifyRead("j1", []dfs.BlockID{1, 2})
	})
	v.Wait()
	if st := s.Stats(); st.DiscardedMissed != 2 || st.PinnedBlocks != 0 {
		t.Fatalf("discarded %d, pinned %d; want 2 discarded, none pinned", st.DiscardedMissed, st.PinnedBlocks)
	}
	if tiers := m.Stats().Tiers; tiers.PromotionsToRAM != 2 || tiers.RAMUsedBytes != 0 {
		t.Errorf("RAM promotions %d, RAM used %d bytes; want 2 planned and 0 still charged", tiers.PromotionsToRAM, tiers.RAMUsedBytes)
	}
}

// TestSharedChargeSurvivesOneJobsDrop: two jobs that plan one block on
// one slave share a single ledger charge. When the slave discards one
// job's command (the job already read the block), the other job's
// command for the same block and tier is still pending and will pin it,
// so the discard must not release the shared charge: the ledger keeps
// charging every byte the slave ends up pinning.
func TestSharedChargeSurvivesOneJobsDrop(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: time.Second}
	var m *Master
	s := NewSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil, func(id dfs.BlockID, tier dfs.Tier, pinned bool) {
		if !pinned {
			m.NoteUnpinned("dn1", tier, []dfs.BlockID{id})
		}
	})
	link := &directLink{slaves: map[string]*Slave{"dn1": s}}
	res := &fakeResolver{files: map[string][]dfs.LocatedBlock{
		"/in": {located(1, 8<<20, "dn1"), located(2, 8<<20, "dn1")},
	}}
	m = NewMaster(res, link, 3)
	v.Go(func() {
		// b is submitted later, so the slave serves a's commands first:
		// a's command for block 1 is discarded while b's is still queued.
		for i, job := range []dfs.JobID{"a", "b"} {
			submit := v.Now().Add(time.Duration(i) * time.Second)
			if _, err := m.Migrate(dfs.MigrateReq{Job: job, Paths: []string{"/in"}, SubmitTime: submit}); err != nil {
				t.Errorf("migrate %s: %v", job, err)
			}
		}
		m.NotifyRead("a", []dfs.BlockID{1})
	})
	v.Wait()
	st := s.Stats()
	if st.DiscardedMissed != 1 {
		t.Fatalf("discarded %d commands, want a's command for block 1", st.DiscardedMissed)
	}
	if used := m.Stats().Tiers.RAMUsedBytes; used != s.PinnedBytes() {
		t.Errorf("ledger charges %d RAM bytes while the slave pins %d", used, s.PinnedBytes())
	}
	if s.PinnedBytes() != 16<<20 {
		t.Errorf("slave pins %d bytes, want both blocks for job b", s.PinnedBytes())
	}
}

// A master restart while a slave holds an in-flight migration from the
// old epoch must not corrupt state: the stale read's result is dropped
// when it lands (its epoch lost), the re-issued migration under the new
// epoch pins each block exactly once, and nothing is double-migrated or
// double-counted.
func TestMasterRestartMidMigrationDropsStaleAndReissues(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: time.Second}
	s := NewSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil, nil)
	link := &directLink{slaves: map[string]*Slave{"dn1": s}}
	res := &fakeResolver{files: map[string][]dfs.LocatedBlock{
		"/a": {located(1, 8<<20, "dn1"), located(2, 8<<20, "dn1")},
	}}
	m := NewMaster(res, link, 3)
	v.Go(func() {
		if _, err := m.Migrate(dfs.MigrateReq{Job: "j1", Paths: []string{"/a"}, SubmitTime: v.Now()}); err != nil {
			t.Errorf("migrate: %v", err)
		}
		// Halfway through the first device read, the master dies and
		// comes back with empty state and a new epoch.
		v.Sleep(500 * time.Millisecond)
		if err := m.Restart(nil); err != nil {
			t.Errorf("restart: %v", err)
		}
		// The job resubmits against the new master, which re-issues the
		// full migration under the new epoch. The batch reaches the slave
		// while the old-epoch read is still in flight.
		if _, err := m.Migrate(dfs.MigrateReq{Job: "j1", Paths: []string{"/a"}, SubmitTime: v.Now()}); err != nil {
			t.Errorf("re-migrate: %v", err)
		}
	})
	v.Wait()

	st := s.Stats()
	if st.PinnedBlocks != 2 || s.PinnedBytes() != 16<<20 {
		t.Fatalf("pinned %d blocks / %d bytes, want 2 / %d", st.PinnedBlocks, s.PinnedBytes(), int64(16<<20))
	}
	if st.MigratedBlocks != 2 {
		t.Errorf("MigratedBlocks = %d, want 2 — the stale completion must not count", st.MigratedBlocks)
	}
	// Three device reads happened (one wasted on the stale epoch), but
	// each block is pinned exactly once.
	if got := len(media.readOrder()); got != 3 {
		t.Errorf("device reads = %d, want 3 (1 stale + 2 re-issued)", got)
	}
	if m.Epoch() != 2 {
		t.Errorf("epoch = %d, want 2", m.Epoch())
	}
	// Both blocks are attributed to the new epoch's assignment, so the
	// job's eventual evict drains everything.
	v.Go(func() {
		if _, err := m.Evict(dfs.EvictReq{Job: "j1"}); err != nil {
			t.Errorf("evict: %v", err)
		}
	})
	v.Wait()
	if s.PinnedBytes() != 0 {
		t.Fatalf("pinned bytes = %d after evict, want 0", s.PinnedBytes())
	}
}

// A job read from several files is planned as one job: every command
// carries the whole input size (the smallest-job-first key), the job
// counts once, and one Evict releases every block.
func TestMultiFileJobCarriesWholeInputSize(t *testing.T) {
	res := &fakeResolver{files: map[string][]dfs.LocatedBlock{
		"/sort/part-0": {located(1, 10, "dn1", "dn2"), located(2, 10, "dn1", "dn2")},
		"/sort/part-1": {located(3, 10, "dn2"), located(4, 10, "dn1")},
		"/sort/part-2": {located(5, 10, "dn1", "dn2")},
	}}
	link := newFakeLink()
	m := NewMaster(res, link, 7)

	resp, err := m.Migrate(dfs.MigrateReq{Job: "sort", Paths: []string{"/sort/part-0", "/sort/part-1", "/sort/part-2"}, SubmitTime: time.Unix(9, 0)})
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	const blocks, wantBytes = 5, 50
	if resp.Blocks != blocks || resp.Bytes != wantBytes {
		t.Fatalf("resp = %+v, want %d blocks / %d bytes", resp, blocks, wantBytes)
	}
	var cmds int
	for _, batches := range link.migrates {
		for _, b := range batches {
			if b.Epoch != 1 {
				t.Errorf("batch epoch = %d, want 1", b.Epoch)
			}
			for _, c := range b.Cmds {
				cmds++
				if c.JobInputSize != wantBytes {
					t.Errorf("block %d JobInputSize = %d, want whole input %d", c.Block.ID, c.JobInputSize, wantBytes)
				}
			}
		}
	}
	if cmds != blocks {
		t.Errorf("commands = %d, want %d", cmds, blocks)
	}
	st := m.Stats()
	if st.ActiveJobs != 1 || st.MigrateReqs != 1 || st.BlocksAssigned != blocks {
		t.Errorf("stats = %+v, want 1 active job, 1 request, %d blocks", st, blocks)
	}

	evResp, err := m.Evict(dfs.EvictReq{Job: "sort"})
	if err != nil {
		t.Fatal(err)
	}
	if evResp.Blocks != blocks {
		t.Errorf("Evict released %d blocks, want %d", evResp.Blocks, blocks)
	}
	if st := m.Stats(); st.ActiveJobs != 0 || st.EvictReqs != 1 {
		t.Errorf("post-evict stats = %+v", st)
	}
}

// Restart bumps the epoch exactly once, drops every assignment, and
// resets the tier ledger (the new epoch purges every slave, so nothing
// stays resident); batches planned afterwards carry the new epoch.
func TestRestartBumpsEpochOnceAndResetsLedger(t *testing.T) {
	res := &fakeResolver{files: map[string][]dfs.LocatedBlock{
		"/f": {located(1, 8, "dn1"), located(2, 8, "dn1"), located(3, 8, "dn2")},
	}}
	link := newFakeLink()
	m := NewMaster(res, link, 3)
	if _, err := m.Migrate(dfs.MigrateReq{Job: "j", Paths: []string{"/f"}}); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Tiers.RAMUsedBytes; got != 24 {
		t.Fatalf("RAM occupancy before restart = %d, want 24", got)
	}
	if err := m.Restart(nil); err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 2 {
		t.Fatalf("Epoch after one Restart = %d, want 2", m.Epoch())
	}
	if got := m.AssignedReplica("j", 1); got != "" {
		t.Fatalf("assignment survived restart: %q", got)
	}
	if st := m.Stats(); st.ActiveJobs != 0 || st.Epoch != 2 || st.Tiers.RAMUsedBytes != 0 {
		t.Fatalf("post-restart stats = %+v", st)
	}
	if _, err := m.Migrate(dfs.MigrateReq{Job: "j2", Paths: []string{"/f"}}); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []string{"dn1", "dn2"} {
		var epochs []uint64
		for _, b := range link.migrates[addr] {
			epochs = append(epochs, b.Epoch)
		}
		if fmt.Sprint(epochs) != "[1 2]" {
			t.Errorf("%s batch epochs = %v, want [1 2]", addr, epochs)
		}
	}
	if got := m.Stats().Tiers.RAMUsedBytes; got != 24 {
		t.Errorf("RAM occupancy after re-migrate = %d, want 24", got)
	}
}
