package ignem

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/dfs"
	"repro/internal/simclock"
	"repro/internal/wal"
)

// AttachJournal gives the master a migration WAL and starts the retry
// pump: a clock-driven loop that re-sends transport-failed batches
// every interval until they deliver or go stale, and truncates the
// journal whenever nothing is in flight. Call before serving requests;
// use RecoverFromJournal to resume state a previous incarnation
// journaled onto the same backend. StopJournal stops the pump.
func (m *Master) AttachJournal(clock simclock.Clock, log *wal.Log, retryInterval time.Duration) {
	if retryInterval <= 0 {
		retryInterval = time.Second
	}
	m.mu.Lock()
	m.journal = NewJournal(log)
	m.mu.Unlock()
	if clock != nil {
		clock.Go(func() {
			for {
				clock.Sleep(retryInterval)
				if m.pumpStopped.Load() {
					return
				}
				m.FlushRetries()
			}
		})
	}
}

// StopJournal stops the retry pump (the journal itself stays attached;
// closing the log is the owner's concern).
func (m *Master) StopJournal() { m.pumpStopped.Store(true) }

// maybeTruncate drops the journal when the master holds no live job and
// no parked batch: everything journaled has fully settled, so a
// recovery from an empty log is exact.
func (m *Master) maybeTruncate() {
	m.mu.Lock()
	j := m.journal
	busy := len(m.jobs) > 0 || len(m.retries) > 0
	m.mu.Unlock()
	if j != nil && !busy {
		_ = j.Truncate()
	}
}

// RecoverFromJournal rebuilds the master's state from the journal,
// modelling a master restart that resumes in-flight migrations instead
// of purging them. The journaled epoch is restored WITHOUT bumping —
// slaves keep their pins, and every re-send below is idempotent against
// them:
//
//   - live jobs (no evict intent) re-register their block→replica
//     assignments; entries never journaled as delivered re-park their
//     migrate batches for the retry pump
//   - jobs with a journaled evict intent stay dropped, and evict
//     batches not journaled as delivered are re-parked
//
// After rebuilding, parked batches are flushed once so recovery
// converges without waiting for the pump.
func (m *Master) RecoverFromJournal() error {
	return m.RecoverFromJournalReconciled(nil)
}

// ResidencyView reports a block replica's authoritative fast-tier
// residency — the namenode's heartbeat-maintained pin side tables. The
// dying master may have consumed pin/unpin deltas whose journal appends
// failed (the slaves won't re-send them), so replay alone under-counts
// confirmed pins and over-counts released charges; recovery reconciles
// against this view to close both gaps.
type ResidencyView func(id dfs.BlockID, addr string) (ram, ssd bool)

// RecoverFromJournalReconciled is RecoverFromJournal with a residency
// view to reconcile the replayed state against (nil skips
// reconciliation):
//
//   - an entry planned at a fast tier whose pin confirmation was lost
//     but whose residency the view confirms is marked pinned, so the
//     ladder's next rung still climbs instead of stalling forever
//   - an SSD budget charge whose block has left flash and reached RAM
//     (the climb completed; the unpin record was lost) is released
func (m *Master) RecoverFromJournalReconciled(view ResidencyView) error {
	m.mu.Lock()
	j := m.journal
	m.mu.Unlock()
	if j == nil {
		return fmt.Errorf("ignem: recover without a journal attached")
	}
	rec, err := j.Replay()
	if err != nil {
		return fmt.Errorf("ignem: journal replay: %w", err)
	}
	if view != nil {
		reconcileReplay(j, rec, view)
	}
	m.mu.Lock()
	if rec.epoch > 0 {
		m.epoch = rec.epoch
	}
	epoch := m.epoch
	m.jobs = make(map[dfs.JobID]*jobState)
	m.retries = nil
	// The budget ledger is rebuilt wholesale from the replayed charge/
	// release stream, so a recovered master admits exactly what the dead
	// one had admitted.
	m.ledger.load(rec.residency)
	resumed := int64(0)
	// ssdPinned collects blocks whose SSD pin was confirmed but whose
	// second rung was never planned: recovery re-runs the climb decision
	// for them once the master is unlocked (heartbeats won't re-send
	// those deltas — the slaves already reported them).
	ssdPinned := make(map[string][]dfs.BlockID)
	for _, job := range sortedJobs(rec.jobs) {
		rj := rec.jobs[job]
		if rj.evictIntent {
			m.repileEvictsLocked(epoch, job, rj)
			continue
		}
		resumed++
		js := &jobState{
			implicit:   rj.implicit,
			inputSize:  rj.jobInputSize,
			submitTime: rj.submitTime,
			blocks:     make(map[dfs.BlockID]*assignment),
		}
		m.jobs[job] = js
		pending := make(map[string][]dfs.MigrateCmd)
		for _, id := range sortedBlockIDs(rj.blocks) {
			e := rj.blocks[id]
			js.blocks[id] = &assignment{addr: e.addr, size: e.size, checksum: e.checksum, tier: e.tier}
			if e.pinned && e.tier == dfs.TierSSD {
				ssdPinned[e.addr] = append(ssdPinned[e.addr], id)
			}
			if e.copied || e.pinned {
				continue
			}
			pending[e.addr] = append(pending[e.addr], dfs.MigrateCmd{
				Block:        dfs.Block{ID: id, Size: e.size},
				Job:          job,
				JobInputSize: rj.jobInputSize,
				SubmitTime:   rj.submitTime,
				Implicit:     rj.implicit,
				Checksum:     e.checksum,
				Tier:         e.tier,
			})
		}
		for _, addr := range sortedKeys(pending) {
			m.retries = append(m.retries, retryBatch{epoch: epoch, addr: addr, job: job, migrate: pending[addr]})
		}
	}
	m.stats.WALReplayed += int64(rec.records)
	m.stats.ResumedJobs += resumed
	pol := m.policy
	m.mu.Unlock()
	if pol != nil {
		// Re-run the climb decision for confirmed SSD pins. NotePinned
		// dedupes the journal side (pinnedSeen was rebuilt by the
		// replay), so this only issues rungs the dead master never
		// planned — the crash-between-rungs case.
		for _, addr := range sortedKeys(ssdPinned) {
			m.NotePinned(addr, dfs.TierSSD, ssdPinned[addr])
		}
	}
	m.FlushRetries()
	return nil
}

// reconcileReplay patches the replayed journal state with residency
// facts the view holds but the log lost — pin and unpin deltas the
// dying master consumed after its last durable append. The slaves never
// re-send those deltas, so without this pass a recovered ladder can
// stall one rung short (a confirmed SSD pin it never learns about) or
// leak a flash charge forever (a climb whose SSD release died with the
// log).
func reconcileReplay(j *Journal, rec *recovered, view ResidencyView) {
	for job, rj := range rec.jobs {
		if rj.evictIntent {
			continue
		}
		for id, e := range rj.blocks {
			if e.pinned || e.tier == dfs.TierHDD {
				continue
			}
			ram, ssd := view(id, e.addr)
			if (e.tier == dfs.TierRAM && ram) || (e.tier == dfs.TierSSD && ssd) {
				e.copied = true
				e.pinned = true
				j.MarkPinned(job, id, e.tier)
			}
		}
	}
	for k, r := range rec.residency {
		if !r.charged[dfs.TierSSD] {
			continue
		}
		ram, ssd := view(k.id, k.addr)
		if !ssd && ram {
			// The SSD→RAM flip completed before the crash; the lost
			// unpin record would have released this charge.
			r.charged[dfs.TierSSD] = false
		}
	}
}

// repileEvictsLocked re-parks a terminating job's undelivered evict
// batches. Called with m.mu held.
func (m *Master) repileEvictsLocked(epoch uint64, job dfs.JobID, rj *recoveredJob) {
	pending := make(map[string][]dfs.EvictCmd)
	for _, id := range sortedBlockIDs(rj.blocks) {
		e := rj.blocks[id]
		if !e.copied && !e.pinned {
			continue // never reached a slave; nothing to release
		}
		if rj.evictSent[e.addr][id] {
			continue // delivery journaled
		}
		pending[e.addr] = append(pending[e.addr], dfs.EvictCmd{Block: id, Job: job})
	}
	for _, addr := range sortedKeys(pending) {
		m.retries = append(m.retries, retryBatch{epoch: epoch, addr: addr, job: job, evict: pending[addr]})
	}
}

func sortedBlockIDs[V any](m map[dfs.BlockID]V) []dfs.BlockID {
	out := make([]dfs.BlockID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
