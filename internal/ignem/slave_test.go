package ignem

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/simclock"
)

// IsPinned reports whether a block is currently in pinned memory.
func (s *Slave) IsPinned(id dfs.BlockID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pinned[id] != nil
}

var epoch = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// fakeMedia simulates the datanode's devices with a fixed per-block copy
// time, whatever the tiers. It records copy order and asserts the slave
// never issues concurrent migration copies.
type fakeMedia struct {
	clock    simclock.Clock
	readTime time.Duration
	err      error

	mu         sync.Mutex
	order      []dfs.BlockID
	inFlight   int
	maxInFlite int
}

func (m *fakeMedia) CopyForMigration(b dfs.Block, _ uint32, _, _ dfs.Tier) error {
	m.mu.Lock()
	m.inFlight++
	if m.inFlight > m.maxInFlite {
		m.maxInFlite = m.inFlight
	}
	m.mu.Unlock()

	m.clock.Sleep(m.readTime)

	m.mu.Lock()
	m.inFlight--
	m.order = append(m.order, b.ID)
	err := m.err
	m.mu.Unlock()
	return err
}

func (m *fakeMedia) readOrder() []dfs.BlockID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]dfs.BlockID, len(m.order))
	copy(out, m.order)
	return out
}

type fakeLiveness struct {
	mu     sync.Mutex
	active map[dfs.JobID]bool
	asked  int
}

func (l *fakeLiveness) IsActive(job dfs.JobID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.asked++
	return l.active[job]
}

type pinRecorder struct {
	mu     sync.Mutex
	events []string
}

func (p *pinRecorder) listener() PinListener {
	return func(id dfs.BlockID, tier dfs.Tier, pinned bool) {
		p.mu.Lock()
		defer p.mu.Unlock()
		state := "unpin"
		if pinned {
			state = "pin"
		}
		p.events = append(p.events, state)
	}
}

func block(id dfs.BlockID, size int64) dfs.Block { return dfs.Block{ID: id, Size: size} }

func cmd(b dfs.Block, job dfs.JobID, jobSize int64, implicit bool) dfs.MigrateCmd {
	return dfs.MigrateCmd{Block: b, Job: job, JobInputSize: jobSize, SubmitTime: epoch, Implicit: implicit, Tier: dfs.TierRAM}
}

func newTestSlave(v *simclock.Virtual, cfg SlaveConfig, media *fakeMedia, live Liveness) (*Slave, *pinRecorder) {
	rec := &pinRecorder{}
	s := NewSlave(v, cfg, media, live, rec.listener())
	return s, rec
}

func TestSlaveMigratesAndPins(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: 100 * time.Millisecond}
	s, rec := newTestSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil)
	b := block(1, 64<<20)
	v.Go(func() {
		s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{cmd(b, "j1", 64<<20, false)}})
	})
	v.Wait()
	if !s.IsPinned(1) {
		t.Fatal("block not pinned after migration")
	}
	if got := s.PinnedBytes(); got != 64<<20 {
		t.Errorf("PinnedBytes = %d", got)
	}
	st := s.Stats()
	if st.MigratedBlocks != 1 || st.MigratedBytes != 64<<20 {
		t.Errorf("stats = %+v", st)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.events) != 1 || rec.events[0] != "pin" {
		t.Errorf("pin events = %v", rec.events)
	}
}

func TestSlaveOneMigrationAtATime(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: 50 * time.Millisecond}
	s, _ := newTestSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil)
	cmds := make([]dfs.MigrateCmd, 10)
	for i := range cmds {
		cmds[i] = cmd(block(dfs.BlockID(i+1), 1<<20), "j1", 10<<20, false)
	}
	v.Go(func() { s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: cmds}) })
	v.Wait()
	if media.maxInFlite != 1 {
		t.Errorf("max concurrent migration reads = %d, want 1", media.maxInFlite)
	}
	if len(media.readOrder()) != 10 {
		t.Errorf("migrated %d blocks, want 10", len(media.readOrder()))
	}
}

func TestSlaveSmallestJobFirst(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: 10 * time.Millisecond}
	s, _ := newTestSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil)
	batch := dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{
		cmd(block(1, 8<<20), "big", 1<<30, false),
		cmd(block(2, 8<<20), "big", 1<<30, false),
		cmd(block(3, 8<<20), "small", 16<<20, false),
		cmd(block(4, 8<<20), "small", 16<<20, false),
	}}
	v.Go(func() { s.ApplyMigrateBatch(batch) })
	v.Wait()
	order := media.readOrder()
	// The first command may already be in flight before the rest enqueue,
	// but the small job's blocks must precede the big job's remaining one.
	pos := map[dfs.BlockID]int{}
	for i, id := range order {
		pos[id] = i
	}
	if !(pos[3] < pos[2] && pos[4] < pos[2]) {
		t.Errorf("small job not prioritized: order=%v", order)
	}
}

func TestSlaveFIFOAblation(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: 10 * time.Millisecond}
	s, _ := newTestSlave(v, SlaveConfig{Capacity: 1 << 30, FIFO: true}, media, nil)
	batch := dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{
		cmd(block(1, 8<<20), "big", 1<<30, false),
		cmd(block(2, 8<<20), "big", 1<<30, false),
		cmd(block(3, 8<<20), "small", 16<<20, false),
	}}
	v.Go(func() { s.ApplyMigrateBatch(batch) })
	v.Wait()
	order := media.readOrder()
	want := []dfs.BlockID{1, 2, 3}
	for i, id := range want {
		if order[i] != id {
			t.Fatalf("FIFO order = %v, want %v", order, want)
		}
	}
}

func TestSlaveImplicitEvictionOnRead(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: time.Millisecond}
	s, rec := newTestSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil)
	b := block(1, 4<<20)
	v.Go(func() {
		s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{cmd(b, "j1", 4<<20, true)}})
	})
	v.Wait()
	if !s.IsPinned(1) {
		t.Fatal("not pinned")
	}
	if tier, resident := s.OnBlockRead(1, "j1"); !resident || tier != dfs.TierRAM {
		t.Error("read not served from memory")
	}
	if s.IsPinned(1) {
		t.Error("implicit eviction did not unpin")
	}
	if s.PinnedBytes() != 0 {
		t.Errorf("PinnedBytes = %d after implicit eviction", s.PinnedBytes())
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.events) != 2 || rec.events[1] != "unpin" {
		t.Errorf("pin events = %v", rec.events)
	}
}

func TestSlaveExplicitEvictionKeepsUntilEvict(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: time.Millisecond}
	s, _ := newTestSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil)
	b := block(1, 4<<20)
	v.Go(func() {
		s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{cmd(b, "j1", 4<<20, false)}})
	})
	v.Wait()
	s.OnBlockRead(1, "j1")
	if !s.IsPinned(1) {
		t.Fatal("explicit-mode block evicted by read")
	}
	s.ApplyEvictBatch(dfs.EvictBatch{Epoch: 1, Cmds: []dfs.EvictCmd{{Block: 1, Job: "j1"}}})
	if s.IsPinned(1) {
		t.Error("explicit eviction did not unpin")
	}
	if got := s.Stats().Evictions; got != 1 {
		t.Errorf("Evictions = %d", got)
	}
}

func TestSlaveSharedBlockRefCounting(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: time.Millisecond}
	s, _ := newTestSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil)
	b := block(1, 4<<20)
	v.Go(func() {
		s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{
			cmd(b, "j1", 4<<20, false),
			cmd(b, "j2", 4<<20, false),
		}})
	})
	v.Wait()
	if got := len(media.readOrder()); got != 1 {
		t.Errorf("device reads = %d, want 1 (shared block)", got)
	}
	s.ApplyEvictBatch(dfs.EvictBatch{Epoch: 1, Cmds: []dfs.EvictCmd{{Block: 1, Job: "j1"}}})
	if !s.IsPinned(1) {
		t.Fatal("block unpinned while j2 still references it")
	}
	s.ApplyEvictBatch(dfs.EvictBatch{Epoch: 1, Cmds: []dfs.EvictCmd{{Block: 1, Job: "j2"}}})
	if s.IsPinned(1) {
		t.Error("block still pinned after last reference dropped")
	}
}

func TestSlaveMissedReadDiscardsQueuedCommand(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: time.Second}
	s, _ := newTestSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil)
	b1, b2 := block(1, 4<<20), block(2, 4<<20)
	v.Go(func() {
		// b1 keeps the worker busy for 1s; meanwhile the job reads b2
		// from disk, so its queued command must be discarded.
		s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{
			cmd(b1, "j1", 8<<20, false),
			cmd(b2, "j1", 8<<20, false),
		}})
		v.Sleep(100 * time.Millisecond)
		if _, resident := s.OnBlockRead(2, "j1"); resident {
			t.Error("b2 unexpectedly in memory already")
		}
	})
	v.Wait()
	if s.IsPinned(2) {
		t.Error("missed block was still migrated")
	}
	if got := s.Stats().DiscardedMissed; got != 1 {
		t.Errorf("DiscardedMissed = %d", got)
	}
}

func TestSlaveMissedReadDuringInflightMigration(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: time.Second}
	s, _ := newTestSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil)
	b := block(1, 4<<20)
	v.Go(func() {
		s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{cmd(b, "j1", 4<<20, true)}})
		v.Sleep(500 * time.Millisecond) // migration in flight
		s.OnBlockRead(1, "j1")          // job reads from disk first
	})
	v.Wait()
	if s.IsPinned(1) {
		t.Error("block pinned although its only reader already read it")
	}
	if s.PinnedBytes() != 0 {
		t.Errorf("leaked reservation: %d bytes", s.PinnedBytes())
	}
}

func TestSlaveDoNotHarmDefersWhenFull(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: time.Millisecond}
	s, _ := newTestSlave(v, SlaveConfig{Capacity: 10 << 20}, media, nil)
	b1, b2 := block(1, 8<<20), block(2, 8<<20)
	v.Go(func() {
		s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{cmd(b1, "j1", 8<<20, false)}})
	})
	v.Wait()
	v.Go(func() {
		s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{cmd(b2, "j2", 8<<20, false)}})
	})
	v.Wait()
	// Do-not-harm: b1 (unread) must not be evicted for b2.
	if !s.IsPinned(1) {
		t.Fatal("unread pinned block was evicted (do-not-harm violated)")
	}
	if s.IsPinned(2) {
		t.Fatal("b2 migrated despite full buffer")
	}
	if got := s.Stats().DeferredCmds; got != 1 {
		t.Errorf("DeferredCmds = %d", got)
	}
	// Once j1 evicts, the deferred command proceeds.
	v.Go(func() {
		s.ApplyEvictBatch(dfs.EvictBatch{Epoch: 1, Cmds: []dfs.EvictCmd{{Block: 1, Job: "j1"}}})
	})
	v.Wait()
	if !s.IsPinned(2) {
		t.Error("deferred migration did not run after space freed")
	}
}

func TestSlaveRejectsOversizedBlock(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: time.Millisecond}
	s, _ := newTestSlave(v, SlaveConfig{Capacity: 1 << 20}, media, nil)
	v.Go(func() {
		s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{cmd(block(1, 2<<20), "j1", 2<<20, false)}})
	})
	v.Wait()
	if got := s.Stats().RejectedTooLarge; got != 1 {
		t.Errorf("RejectedTooLarge = %d", got)
	}
}

func TestSlaveEpochChangePurges(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: time.Millisecond}
	s, _ := newTestSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil)
	v.Go(func() {
		s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{cmd(block(1, 4<<20), "j1", 4<<20, false)}})
	})
	v.Wait()
	if !s.IsPinned(1) {
		t.Fatal("setup: block not pinned")
	}
	// A batch from a restarted master (epoch 2) purges everything first.
	v.Go(func() {
		s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 2, Cmds: []dfs.MigrateCmd{cmd(block(2, 4<<20), "j2", 4<<20, false)}})
	})
	v.Wait()
	if s.IsPinned(1) {
		t.Error("old-epoch block survived master restart")
	}
	if !s.IsPinned(2) {
		t.Error("new-epoch migration did not run")
	}
}

func TestSlaveInflightMigrationDroppedOnEpochChange(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: time.Second}
	s, _ := newTestSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil)
	v.Go(func() {
		s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{cmd(block(1, 4<<20), "j1", 4<<20, false)}})
		v.Sleep(200 * time.Millisecond)
		s.ApplyEvictBatch(dfs.EvictBatch{Epoch: 2}) // master restarted mid-flight
	})
	v.Wait()
	if s.IsPinned(1) {
		t.Error("stale-epoch migration was pinned")
	}
	if s.PinnedBytes() != 0 {
		t.Errorf("leaked reservation: %d", s.PinnedBytes())
	}
}

func TestSlaveLivenessSweepPurgesDeadJobs(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: time.Millisecond}
	live := &fakeLiveness{active: map[dfs.JobID]bool{"alive": true}}
	s, _ := newTestSlave(v, SlaveConfig{Capacity: 10 << 20, CleanupMinInterval: time.Second}, media, live)
	v.Go(func() {
		s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{
			cmd(block(1, 4<<20), "dead", 8<<20, false),
			cmd(block(2, 4<<20), "alive", 8<<20, false),
		}})
	})
	v.Wait()
	if !s.IsPinned(1) || !s.IsPinned(2) {
		t.Fatal("setup: blocks not pinned")
	}
	// Occupancy is 80% > the 75% cleanup threshold; a deferred command
	// triggers the sweep, which purges the dead job and then admits the
	// new block.
	v.Go(func() {
		v.Sleep(2 * time.Second)
		s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{cmd(block(3, 4<<20), "alive", 8<<20, false)}})
	})
	v.Wait()
	if s.IsPinned(1) {
		t.Error("dead job's block not purged by sweep")
	}
	if !s.IsPinned(2) {
		t.Error("live job's block wrongly purged")
	}
	if !s.IsPinned(3) {
		t.Error("deferred block not admitted after sweep")
	}
	if got := s.Stats().PurgedJobs; got != 1 {
		t.Errorf("PurgedJobs = %d", got)
	}
}

func TestSlaveRestartDiscardsMemory(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: time.Millisecond}
	s, _ := newTestSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil)
	v.Go(func() {
		s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{cmd(block(1, 4<<20), "j1", 4<<20, false)}})
	})
	v.Wait()
	s.Restart()
	if s.IsPinned(1) || s.PinnedBytes() != 0 {
		t.Error("restart did not discard pinned memory")
	}
	// The slave still handles new commands after restart.
	v.Go(func() {
		s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{cmd(block(2, 4<<20), "j2", 4<<20, false)}})
	})
	v.Wait()
	if !s.IsPinned(2) {
		t.Error("slave dead after restart")
	}
}

func TestSlaveMediaErrorRollsBackReservation(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: time.Millisecond, err: errors.New("disk died")}
	s, _ := newTestSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil)
	v.Go(func() {
		s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{cmd(block(1, 4<<20), "j1", 4<<20, false)}})
	})
	v.Wait()
	if s.IsPinned(1) {
		t.Error("failed migration pinned block")
	}
	if s.PinnedBytes() != 0 {
		t.Errorf("leaked reservation: %d", s.PinnedBytes())
	}
}

func TestSlaveCloseStopsWorker(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: time.Hour}
	s, _ := newTestSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil)
	v.Go(func() {
		s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{cmd(block(1, 4<<20), "j1", 4<<20, false)}})
		v.Sleep(time.Second)
		s.Close()
	})
	v.Wait()
	if s.PinnedBytes() != 0 {
		t.Errorf("pinned bytes after close: %d", s.PinnedBytes())
	}
	// Post-close applies are no-ops.
	s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{cmd(block(2, 1<<20), "j2", 1<<20, false)}})
	if _, resident := s.OnBlockRead(2, "j2"); resident {
		t.Error("closed slave claims memory hit")
	}
}

func TestSlaveMemoryHitMissCounters(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: time.Millisecond}
	s, _ := newTestSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil)
	v.Go(func() {
		s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{cmd(block(1, 1<<20), "j1", 1<<20, false)}})
	})
	v.Wait()
	s.OnBlockRead(1, "j1") // hit
	s.OnBlockRead(9, "j9") // miss
	st := s.Stats()
	if st.MemoryHits != 1 || st.MemoryMisses != 1 {
		t.Errorf("hits=%d misses=%d", st.MemoryHits, st.MemoryMisses)
	}
}

// checkAccounting asserts the slave's internal byte accounting matches
// the pinned-block map exactly.
func checkAccounting(t *testing.T, s *Slave) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum [dfs.TierRAM + 1]int64
	for _, pb := range s.pinned {
		sum[pb.tier] += pb.size
		if len(pb.refs) == 0 {
			t.Error("pinned block with empty reference list")
		}
	}
	if sum != s.tierBytes {
		t.Errorf("per-tier bytes %v != sums of pinned blocks %v", s.tierBytes, sum)
	}
	if s.reserved < 0 {
		t.Errorf("negative reservation %d", s.reserved)
	}
	// jobBlocks is the inverse index of refs.
	for job, blocks := range s.jobBlocks {
		for id := range blocks {
			pb := s.pinned[id]
			if pb == nil {
				t.Errorf("jobBlocks[%s] references unpinned block %d", job, id)
				continue
			}
			if _, ok := pb.refs[job]; !ok {
				t.Errorf("jobBlocks[%s] out of sync for block %d", job, id)
			}
		}
	}
}

// Property: internal accounting stays consistent under random command
// interleavings, checked at quiesce points.
func TestSlaveAccountingInvariant(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		v := simclock.NewVirtual(epoch)
		media := &fakeMedia{clock: v, readTime: 3 * time.Millisecond}
		s, _ := newTestSlave(v, SlaveConfig{Capacity: 20 << 20}, media, nil)
		rng := rand.New(rand.NewSource(seed))
		v.Go(func() {
			for i := 0; i < 60; i++ {
				id := dfs.BlockID(rng.Intn(12) + 1)
				job := dfs.JobID(fmt.Sprintf("j%d", rng.Intn(4)))
				switch rng.Intn(4) {
				case 0, 1:
					s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{
						cmd(block(id, int64(rng.Intn(4)+1)<<20), job, 8<<20, rng.Intn(2) == 0),
					}})
				case 2:
					s.OnBlockRead(id, job)
				case 3:
					s.ApplyEvictBatch(dfs.EvictBatch{Epoch: 1, Cmds: []dfs.EvictCmd{{Block: id, Job: job}}})
				}
				if rng.Intn(3) == 0 {
					v.Sleep(time.Duration(rng.Intn(10)) * time.Millisecond)
				}
			}
		})
		v.Wait()
		checkAccounting(t, s)
	}
}
