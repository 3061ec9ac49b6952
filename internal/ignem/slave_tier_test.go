package ignem

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/simclock"
)

// tierRecorder is a tier-aware pin listener (pinRecorder in
// slave_test.go only records pin/unpin state).
type tierRecorder struct {
	mu     sync.Mutex
	events []string
}

func (r *tierRecorder) listener() PinListener {
	return func(id dfs.BlockID, tier dfs.Tier, pinned bool) {
		r.mu.Lock()
		defer r.mu.Unlock()
		state := "unpin"
		if pinned {
			state = "pin"
		}
		r.events = append(r.events, fmt.Sprintf("%s:%d:%v", state, id, tier))
	}
}

func (r *tierRecorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.events...)
}

func tierCmd(b dfs.Block, job dfs.JobID, jobSize int64, tier dfs.Tier) dfs.MigrateCmd {
	c := cmd(b, job, jobSize, false)
	c.Tier = tier
	return c
}

func TestSlaveMigratesToSSDTier(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: 10 * time.Millisecond}
	rec := &tierRecorder{}
	s := NewSlave(v, SlaveConfig{Capacity: 1 << 20}, media, nil, rec.listener())

	// The block is far larger than RAM capacity: the flash rung is not
	// bounded by Capacity (the master's SSD budget governs it).
	b := block(1, 64<<20)
	v.Go(func() {
		s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{tierCmd(b, "j1", 64<<20, dfs.TierSSD)}})
	})
	v.Wait()

	if !s.IsPinned(1) {
		t.Fatal("block not resident after SSD migration")
	}
	if got := s.PinnedBytes(); got != 0 {
		t.Errorf("PinnedBytes = %d, want 0 (flash copy must not charge RAM)", got)
	}
	st := s.Stats()
	if st.SSDPinnedBlocks != 1 || st.SSDPinnedBytes != 64<<20 {
		t.Errorf("stats = %+v", st)
	}

	// A read is served from flash, not memory.
	tier, resident := s.OnBlockRead(1, "other")
	if !resident || tier != dfs.TierSSD {
		t.Errorf("OnBlockRead = (%v, %v), want (SSD, true)", tier, resident)
	}
	if st = s.Stats(); st.SSDHits != 1 || st.MemoryHits != 0 {
		t.Errorf("hit counters = ssd %d mem %d", st.SSDHits, st.MemoryHits)
	}

	if got := rec.snapshot(); len(got) != 1 || got[0] != fmt.Sprintf("pin:1:%v", dfs.TierSSD) {
		t.Errorf("pin events = %v", got)
	}
}

func TestSlaveClimbsSSDToRAM(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: 10 * time.Millisecond}
	rec := &tierRecorder{}
	s := NewSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil, rec.listener())

	b := block(1, 8<<20)
	v.Go(func() {
		s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{tierCmd(b, "j1", 8<<20, dfs.TierSSD)}})
	})
	v.Wait()
	// Second rung: the master promotes the now-flash-resident block.
	v.Go(func() {
		s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{tierCmd(b, "j1", 8<<20, dfs.TierRAM)}})
	})
	v.Wait()

	if got := s.PinnedBytes(); got != 8<<20 {
		t.Errorf("PinnedBytes = %d, want %d after climb", got, 8<<20)
	}
	if got := s.Stats().SSDPinnedBytes; got != 0 {
		t.Errorf("SSDPinnedBytes = %d, want 0 after climb (flash copy released)", got)
	}
	st := s.Stats()
	if st.ClimbedBlocks != 1 {
		t.Errorf("ClimbedBlocks = %d, want 1", st.ClimbedBlocks)
	}
	if st.MigratedBlocks != 1 {
		t.Errorf("MigratedBlocks = %d, want 1 (a climb is not a fresh migration)", st.MigratedBlocks)
	}
	// RAM pin lands before the flash unpin so a crash mid-climb never
	// leaves the block resident nowhere.
	want := []string{
		fmt.Sprintf("pin:1:%v", dfs.TierSSD),
		fmt.Sprintf("pin:1:%v", dfs.TierRAM),
		fmt.Sprintf("unpin:1:%v", dfs.TierSSD),
	}
	got := rec.snapshot()
	if len(got) != len(want) {
		t.Fatalf("pin events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pin events = %v, want %v", got, want)
		}
	}
	// And the read hook now reports a memory hit.
	if tier, resident := s.OnBlockRead(1, "other"); !resident || tier != dfs.TierRAM {
		t.Errorf("OnBlockRead = (%v, %v), want (RAM, true)", tier, resident)
	}
}

// TestSlaveDropsCommandsOutsideTheLadder: a migrate command targets
// TierSSD or TierRAM. One naming the cold tier, or a tier past the top
// of the ladder, is dropped on arrival: no device read, no pin, no
// charge to either tier. A valid command in the same batch still runs.
func TestSlaveDropsCommandsOutsideTheLadder(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	media := &fakeMedia{clock: v, readTime: 10 * time.Millisecond}
	s, _ := newTestSlave(v, SlaveConfig{Capacity: 1 << 30}, media, nil)
	v.Go(func() {
		s.ApplyMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{
			tierCmd(block(1, 1<<20), "j1", 3<<20, dfs.TierHDD),
			tierCmd(block(2, 1<<20), "j1", 3<<20, dfs.TierRAM+1),
			tierCmd(block(3, 1<<20), "j1", 3<<20, dfs.TierRAM),
		}})
	})
	v.Wait()
	if got := media.readOrder(); !reflect.DeepEqual(got, []dfs.BlockID{3}) {
		t.Errorf("device reads = %v, want only the valid block [3]", got)
	}
	if s.IsPinned(1) || s.IsPinned(2) {
		t.Error("a command outside the ladder was pinned")
	}
	if got := s.PinnedBytes(); got != 1<<20 {
		t.Errorf("PinnedBytes = %d, want %d", got, 1<<20)
	}
	if got := s.Stats().SSDPinnedBytes; got != 0 {
		t.Errorf("SSDPinnedBytes = %d, want 0", got)
	}
}
