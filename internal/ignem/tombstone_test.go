package ignem

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/simclock"
)

// TestTombstonePruneBounded is the count gate on eviction tombstones:
// 5 000 jobs finish over three tombstone lifetimes, one evict batch each.
// The table must hold no more than the jobs of one lifetime, and expiry
// must look at a constant number of tombstones per batch however many are
// held — it used to walk the whole table, under the slave's lock, on
// every batch. A job evicted again keeps one tombstone, dated from its
// last eviction. Run via `make bench-alloc`.
func TestTombstonePruneBounded(t *testing.T) {
	const (
		jobs     = 5000
		ttl      = 10 * time.Minute // tombstoneTTL
		spacing  = 3 * ttl / jobs
		perTTL   = int(ttl/spacing) + 1
		repeatAt = 100 // every repeatAt-th batch also re-evicts "again"
	)
	v := simclock.NewVirtual(epoch)
	s, _ := newTestSlave(v, SlaveConfig{Capacity: 1 << 30}, &fakeMedia{clock: v}, nil)
	var maxExamined, maxHeld, total int64
	v.Go(func() {
		defer s.Close()
		for i := 0; i < jobs; i++ {
			job := dfs.JobID(fmt.Sprintf("job-%d", i))
			// Two blocks per job: one tombstone, not one per command.
			cmds := []dfs.EvictCmd{{Block: dfs.BlockID(2 * i), Job: job}, {Block: dfs.BlockID(2*i + 1), Job: job}}
			if i%repeatAt == 0 {
				cmds = append(cmds, dfs.EvictCmd{Block: 1, Job: "again"})
			}
			s.mu.Lock()
			before := s.tombstonesExamined
			s.mu.Unlock()
			s.ApplyEvictBatch(dfs.EvictBatch{Epoch: 1, Cmds: cmds})
			s.mu.Lock()
			examined := s.tombstonesExamined - before
			held := int64(len(s.evicted))
			if n := int64(s.evictedOrder.Len()); n != held {
				t.Errorf("batch %d: %d tombstones in order, %d in the table", i, n, held)
			}
			s.mu.Unlock()
			total += examined
			if examined > maxExamined {
				maxExamined = examined
			}
			if held > maxHeld {
				maxHeld = held
			}
			v.Sleep(spacing)
		}
	})
	v.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	if maxHeld > int64(perTTL)+1 { // +1: "again"
		t.Errorf("held up to %d tombstones; one lifetime is %d jobs", maxHeld, perTTL)
	}
	if maxExamined > 3 {
		t.Errorf("one evict batch examined %d tombstones with at most %d held; want a constant", maxExamined, maxHeld)
	}
	if total > 2*jobs {
		t.Errorf("expiry examined %d tombstones over %d batches", total, jobs)
	}
	if _, ok := s.evicted["again"]; !ok {
		t.Error("a job evicted again within its lifetime lost its tombstone")
	}
	if _, ok := s.evicted["job-0"]; ok {
		t.Error("the oldest tombstone never expired")
	}
	if _, ok := s.evicted[dfs.JobID(fmt.Sprintf("job-%d", jobs-1))]; !ok {
		t.Error("the newest tombstone is gone")
	}
	t.Logf("%d jobs over 3 lifetimes: ≤ %d tombstones held (%d per lifetime), ≤ %d examined per batch, %d in all",
		jobs, maxHeld, perTTL, maxExamined, total)
}
