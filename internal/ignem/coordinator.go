package ignem

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dfs"
	"repro/internal/shardmap"
	"repro/internal/simclock"
	"repro/internal/wal"
)

// Coordinator fronts the partitioned Ignem master: one planner (Master)
// per metadata shard, with the cross-shard concerns — the shared epoch,
// request fan-out by the consistent-hash block→shard map, and stats
// merging — kept here. It is deliberately thin: it holds no per-block
// state of its own, so the planners scale independently and the
// coordinator can never become the serialization point the single
// master was.
//
// The "one sort spans shards" case is the design driver: a job whose
// input files hash to several shards is planned by several planners, but
// every MigrateCmd is stamped with the job's WHOLE input size, so the
// slaves' smallest-job-first queues order the job's fragments exactly as
// the unsharded master would. At shard count 1 the coordinator degrades
// to a pass-through and its planner draws the seeded replica-choice rng
// bit-identically to the historical single master.
type Coordinator struct {
	resolver Resolver
	masters  []*Master
	ring     *shardmap.Ring
	epoch    *epochCounter

	// Tier plane (nil until ConfigureTiers): the policy, budget ledger,
	// and popularity tracker shared by every planner, owned here for the
	// same reason the epoch is — budgets are cluster-wide, not per-shard.
	policy Policy
	ledger *tierLedger
	pop    *popTracker

	// reqMu guards the request counters. Requests are counted here, not
	// in the planners: a cross-shard migrate is one request no matter how
	// many planners it touches.
	reqMu       sync.Mutex
	migrateReqs int64
	evictReqs   int64

	// journal, when attached, is shared by every planner; the
	// coordinator owns the cross-shard concerns: recovery, the retry
	// pump, and truncation when nothing is in flight.
	journal     *Journal
	pumpStopped atomic.Bool
	// walReplayed/resumedJobs are recovery counters (under reqMu).
	walReplayed int64
	resumedJobs int64
}

// NewCoordinator builds the partitioned master: shards planners over the
// given resolver and slave link, sharing one epoch. Planner i draws its
// replica choices from a stream derived from seed; shard 0's stream IS
// the seed stream, so a single-shard coordinator replays the historical
// master's draws exactly.
func NewCoordinator(resolver Resolver, link SlaveLink, seed int64, shards int) *Coordinator {
	if shards < 1 {
		shards = 1
	}
	epoch := newEpochCounter(1)
	co := &Coordinator{
		resolver: resolver,
		ring:     shardmap.NewRing(shards),
		epoch:    epoch,
	}
	for i := 0; i < shards; i++ {
		// Shard 0 keeps the undisturbed seed; later shards offset by a
		// large odd constant so the streams never collide with each other
		// or with the namenode's placement streams.
		co.masters = append(co.masters, newShardMaster(resolver, link, seed+int64(i)*0x9E3779B9, epoch))
	}
	return co
}

// ConfigureTiers installs the migration ladder: a named policy plus
// per-tier byte budgets, shared across every planner shard. Call before
// serving requests (and before RecoverFromJournal, so a recovered
// ledger has its limits). A coordinator never configured keeps the
// paper's pin-in-RAM behavior bit-identically.
func (co *Coordinator) ConfigureTiers(policyName string, budgets TierBudgets) error {
	p, ok := PolicyByName(policyName)
	if !ok {
		return fmt.Errorf("ignem: unknown migration policy %q", policyName)
	}
	co.policy = p
	co.ledger = newTierLedger(budgets)
	co.pop = newPopTracker()
	for _, m := range co.masters {
		m.setTierPlane(p, co.ledger, co.pop)
	}
	return nil
}

// AttachJournal gives every planner a shared migration WAL and starts
// the retry pump: a clock-driven loop that re-sends transport-failed
// batches every interval until they deliver or go stale, and truncates
// the journal whenever nothing is in flight. Call before serving
// requests; use RecoverFromJournal to resume state a previous
// incarnation journaled onto the same backend. StopJournal stops the
// pump.
func (co *Coordinator) AttachJournal(clock simclock.Clock, log *wal.Log, retryInterval time.Duration) {
	if retryInterval <= 0 {
		retryInterval = time.Second
	}
	j := NewJournal(log)
	co.journal = j
	for _, m := range co.masters {
		m.mu.Lock()
		m.journal = j
		m.mu.Unlock()
	}
	if clock != nil {
		clock.Go(func() {
			for {
				clock.Sleep(retryInterval)
				if co.pumpStopped.Load() {
					return
				}
				co.FlushRetries()
			}
		})
	}
}

// StopJournal stops the retry pump (the journal itself stays attached;
// closing the log is the owner's concern).
func (co *Coordinator) StopJournal() { co.pumpStopped.Store(true) }

// FlushRetries re-sends every planner's parked batches once and
// truncates the journal if nothing remains in flight. The retry pump
// calls it on its interval; tests call it directly to make retry
// timing explicit.
func (co *Coordinator) FlushRetries() {
	for _, m := range co.masters {
		m.flushRetries()
	}
	co.maybeTruncate()
}

// maybeTruncate drops the journal when no planner holds a live job or a
// parked batch: everything journaled has fully settled, so a recovery
// from an empty log is exact.
func (co *Coordinator) maybeTruncate() {
	if co.journal == nil {
		return
	}
	for _, m := range co.masters {
		m.mu.Lock()
		busy := len(m.jobs) > 0 || len(m.retries) > 0
		m.mu.Unlock()
		if busy {
			return
		}
	}
	_ = co.journal.Truncate()
}

// NotePinned feeds heartbeat-confirmed pin deltas at tier to the
// planners: the slave at addr now holds these blocks pinned and
// checksum-verified. The journal records the swap, and — for SSD pins
// under a ladder policy — the owning planner issues the second rung.
// A no-op without a journal or a tier plane.
func (co *Coordinator) NotePinned(addr string, tier dfs.Tier, blocks []dfs.BlockID) {
	if (co.journal == nil && co.policy == nil) || len(blocks) == 0 {
		return
	}
	if len(co.masters) == 1 {
		co.masters[0].notePinned(addr, tier, blocks)
		return
	}
	parts := make([][]dfs.BlockID, len(co.masters))
	for _, id := range blocks {
		s := co.ring.BlockShard(uint64(id))
		parts[s] = append(parts[s], id)
	}
	for i, m := range co.masters {
		if len(parts[i]) > 0 {
			m.notePinned(addr, tier, parts[i])
		}
	}
}

// NoteUnpinned feeds heartbeat unpin deltas at tier to the planners,
// releasing the blocks' budget charges. A no-op without a tier plane.
func (co *Coordinator) NoteUnpinned(addr string, tier dfs.Tier, blocks []dfs.BlockID) {
	if co.ledger == nil || len(blocks) == 0 {
		return
	}
	if len(co.masters) == 1 {
		co.masters[0].noteUnpinned(addr, tier, blocks)
		return
	}
	parts := make([][]dfs.BlockID, len(co.masters))
	for _, id := range blocks {
		s := co.ring.BlockShard(uint64(id))
		parts[s] = append(parts[s], id)
	}
	for i, m := range co.masters {
		if len(parts[i]) > 0 {
			m.noteUnpinned(addr, tier, parts[i])
		}
	}
}

// RecoverFromJournal rebuilds the planners' state from the journal,
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
func (co *Coordinator) RecoverFromJournal() error {
	return co.RecoverFromJournalReconciled(nil)
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
func (co *Coordinator) RecoverFromJournalReconciled(view ResidencyView) error {
	if co.journal == nil {
		return fmt.Errorf("ignem: recover without a journal attached")
	}
	rec, err := co.journal.Replay()
	if err != nil {
		return fmt.Errorf("ignem: journal replay: %w", err)
	}
	if view != nil {
		co.reconcileReplay(rec, view)
	}
	for _, m := range co.masters {
		m.mu.Lock()
	}
	if rec.epoch > 0 {
		co.epoch.set(rec.epoch)
	}
	epoch := co.epoch.get()
	for _, m := range co.masters {
		m.jobs = make(map[dfs.JobID]*jobState)
		m.retries = nil
	}
	// The budget ledger is rebuilt wholesale from the replayed charge/
	// release stream, so a recovered master admits exactly what the dead
	// one had admitted.
	co.ledger.load(rec.residency)
	resumed := int64(0)
	// ssdPinned collects blocks whose SSD pin was confirmed but whose
	// second rung was never planned: recovery re-runs the climb decision
	// for them once the planners are unlocked (heartbeats won't re-send
	// those deltas — the slaves already reported them).
	ssdPinned := make(map[retryKey][]dfs.BlockID)
	for _, job := range sortedJobs(rec.jobs) {
		rj := rec.jobs[job]
		if rj.evictIntent {
			co.repileEvicts(epoch, job, rj)
			continue
		}
		resumed++
		// Shard 0 anchors the job as a live migrate request would.
		co.anchorJob(0, job, rj)
		pending := make(map[retryKey][]dfs.MigrateCmd)
		for _, id := range sortedBlockIDs(rj.blocks) {
			e := rj.blocks[id]
			s := co.ring.BlockShard(uint64(id))
			co.anchorJob(s, job, rj).blocks[id] = &assignment{addr: e.addr, size: e.size, checksum: e.checksum, tier: e.tier}
			if e.pinned && e.tier == dfs.TierSSD {
				k := retryKey{s, e.addr}
				ssdPinned[k] = append(ssdPinned[k], id)
			}
			if e.copied || e.pinned {
				continue
			}
			k := retryKey{s, e.addr}
			pending[k] = append(pending[k], dfs.MigrateCmd{
				Block:        dfs.Block{ID: id, Size: e.size},
				Job:          job,
				JobInputSize: rj.jobInputSize,
				SubmitTime:   rj.submitTime,
				Implicit:     rj.implicit,
				Checksum:     e.checksum,
				Tier:         e.tier,
			})
		}
		for _, k := range sortedRetryKeys(pending) {
			m := co.masters[k.shard]
			m.retries = append(m.retries, retryBatch{epoch: epoch, addr: k.addr, job: job, migrate: pending[k]})
		}
	}
	for i := len(co.masters) - 1; i >= 0; i-- {
		co.masters[i].mu.Unlock()
	}
	co.reqMu.Lock()
	co.walReplayed += int64(rec.records)
	co.resumedJobs += resumed
	co.reqMu.Unlock()
	if co.policy != nil {
		// Re-run the climb decision for confirmed SSD pins. notePinned
		// dedupes the journal side (pinnedSeen was rebuilt by the
		// replay), so this only issues rungs the dead master never
		// planned — the crash-between-rungs case.
		for _, k := range sortedRetryKeys(ssdPinned) {
			co.masters[k.shard].notePinned(k.addr, dfs.TierSSD, ssdPinned[k])
		}
	}
	co.FlushRetries()
	return nil
}

// reconcileReplay patches the replayed journal state with residency
// facts the view holds but the log lost — pin and unpin deltas the
// dying master consumed after its last durable append. The slaves never
// re-send those deltas, so without this pass a recovered ladder can
// stall one rung short (a confirmed SSD pin it never learns about) or
// leak a flash charge forever (a climb whose SSD release died with the
// log).
func (co *Coordinator) reconcileReplay(rec *recovered, view ResidencyView) {
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
				co.journal.MarkPinned(job, id, e.tier)
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

// anchorJob returns (creating if needed) job's state on shard s,
// stamping the journaled metadata. Callers hold every master's lock
// (recovery path).
func (co *Coordinator) anchorJob(s int, job dfs.JobID, rj *recoveredJob) *jobState {
	m := co.masters[s]
	js := m.jobs[job]
	if js == nil {
		js = &jobState{
			implicit:   rj.implicit,
			inputSize:  rj.jobInputSize,
			submitTime: rj.submitTime,
			blocks:     make(map[dfs.BlockID]*assignment),
		}
		m.jobs[job] = js
	}
	return js
}

// repileEvicts re-parks a terminating job's undelivered evict batches.
// Callers hold every master's lock.
func (co *Coordinator) repileEvicts(epoch uint64, job dfs.JobID, rj *recoveredJob) {
	pending := make(map[retryKey][]dfs.EvictCmd)
	for _, id := range sortedBlockIDs(rj.blocks) {
		e := rj.blocks[id]
		if !e.copied && !e.pinned {
			continue // never reached a slave; nothing to release
		}
		if rj.evictSent[e.addr][id] {
			continue // delivery journaled
		}
		k := retryKey{shard: co.ring.BlockShard(uint64(id)), addr: e.addr}
		pending[k] = append(pending[k], dfs.EvictCmd{Block: id, Job: job})
	}
	for _, k := range sortedRetryKeys(pending) {
		m := co.masters[k.shard]
		m.retries = append(m.retries, retryBatch{epoch: epoch, addr: k.addr, job: job, evict: pending[k]})
	}
}

// retryKey addresses one parked batch's destination: the owning planner
// shard and the slave address.
type retryKey struct {
	shard int
	addr  string
}

func sortedRetryKeys[V any](m map[retryKey]V) []retryKey {
	out := make([]retryKey, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].shard != out[j].shard {
			return out[i].shard < out[j].shard
		}
		return out[i].addr < out[j].addr
	})
	return out
}

func sortedBlockIDs[V any](m map[dfs.BlockID]V) []dfs.BlockID {
	out := make([]dfs.BlockID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Migrate resolves the job's files once, partitions the blocks by the
// consistent-hash map, and fans the fragments out to the owning
// planners in shard order. The job's total input size — summed across
// every shard — rides on each fragment so smallest-job-first stays a
// global order.
func (co *Coordinator) Migrate(req dfs.MigrateReq) (dfs.MigrateResp, error) {
	if req.Job == "" {
		return dfs.MigrateResp{}, fmt.Errorf("ignem: migrate with empty job ID")
	}
	var located []dfs.LocatedBlock
	for _, path := range req.Paths {
		blocks, err := co.resolver.Resolve(path)
		if err != nil {
			return dfs.MigrateResp{}, fmt.Errorf("ignem: resolve %s: %w", path, err)
		}
		located = append(located, blocks...)
	}
	var totalSize int64
	for _, lb := range located {
		totalSize += lb.Block.Size
	}

	parts := make([][]dfs.LocatedBlock, len(co.masters))
	for _, lb := range located {
		s := co.ring.BlockShard(uint64(lb.Block.ID))
		parts[s] = append(parts[s], lb)
	}

	co.reqMu.Lock()
	co.migrateReqs++
	co.reqMu.Unlock()

	var blocks int
	var bytes int64
	for i, m := range co.masters {
		// Shard 0 anchors the job even when it owns none of its blocks,
		// mirroring the unsharded master's "a migrate request always
		// registers the job" behavior (ActiveJobs, idempotent re-migrate).
		if len(parts[i]) == 0 && i != 0 {
			continue
		}
		b, by, err := m.migrateLocated(req.Job, parts[i], totalSize, req.SubmitTime, req.Implicit)
		if err != nil {
			// A journal failure mid-fanout fails the request; fragments
			// already planned stay journaled and recovery resumes them.
			return dfs.MigrateResp{}, err
		}
		blocks += b
		bytes += by
	}
	return dfs.MigrateResp{Blocks: blocks, Bytes: bytes}, nil
}

// Evict releases the job on every planner and reports the merged
// notification count. Planners that never planned for the job no-op.
func (co *Coordinator) Evict(req dfs.EvictReq) (dfs.EvictResp, error) {
	co.reqMu.Lock()
	co.evictReqs++
	co.reqMu.Unlock()
	blocks := 0
	for _, m := range co.masters {
		b, err := m.evictJob(req.Job)
		if err != nil {
			return dfs.EvictResp{}, err
		}
		blocks += b
	}
	co.maybeTruncate()
	return dfs.EvictResp{Blocks: blocks}, nil
}

// NotifyRead partitions a cache-hit notification batch by block shard
// and forwards each fragment to its owning planner.
func (co *Coordinator) NotifyRead(job dfs.JobID, blocks []dfs.BlockID) {
	if len(co.masters) == 1 {
		co.masters[0].NotifyRead(job, blocks)
		return
	}
	parts := make([][]dfs.BlockID, len(co.masters))
	for _, id := range blocks {
		s := co.ring.BlockShard(uint64(id))
		parts[s] = append(parts[s], id)
	}
	for i, m := range co.masters {
		if len(parts[i]) > 0 {
			m.NotifyRead(job, parts[i])
		}
	}
}

// AssignedReplica reports the replica address the owning planner chose
// for a (job, block) migration, or "" if none.
func (co *Coordinator) AssignedReplica(job dfs.JobID, block dfs.BlockID) string {
	return co.masters[co.ring.BlockShard(uint64(block))].AssignedReplica(job, block)
}

// Epoch returns the shared master epoch.
func (co *Coordinator) Epoch() uint64 { return co.epoch.get() }

// Restart simulates a master failure and recovery: every planner locks,
// the shared epoch bumps exactly once, and all job state drops — the
// same all-or-nothing transition the single master made, so slaves see
// one epoch change, not one per shard.
func (co *Coordinator) Restart() {
	for _, m := range co.masters {
		m.mu.Lock()
	}
	co.epoch.bump()
	for _, m := range co.masters {
		m.jobs = make(map[dfs.JobID]*jobState)
		m.retries = nil
	}
	// The epoch bump purges every slave's pins, so no residency survives.
	co.ledger.reset()
	for i := len(co.masters) - 1; i >= 0; i-- {
		co.masters[i].mu.Unlock()
	}
}

// Stats merges the planners' counters into one cluster-wide snapshot.
// Sums merge the work counters; ActiveJobs is the size of the UNION of
// the planners' job sets, so a sort spanning four shards counts as one
// active job, not four; request counts come from the coordinator, which
// counted each client request once.
func (co *Coordinator) Stats() MasterStats {
	var st MasterStats
	jobs := make(map[dfs.JobID]struct{})
	for _, m := range co.masters {
		ms := m.Stats()
		st.MigrateReqs += ms.MigrateReqs
		st.EvictReqs += ms.EvictReqs
		st.ReadNotifies += ms.ReadNotifies
		st.BlocksAssigned += ms.BlocksAssigned
		st.BytesAssigned += ms.BytesAssigned
		st.SendErrors += ms.SendErrors
		st.SendFailures += ms.SendFailures
		st.RetriedBatches += ms.RetriedBatches
		st.PendingRetries += ms.PendingRetries
		for _, job := range m.jobIDs() {
			jobs[job] = struct{}{}
		}
	}
	co.reqMu.Lock()
	st.MigrateReqs += co.migrateReqs
	st.EvictReqs += co.evictReqs
	st.WALReplayed = co.walReplayed
	st.ResumedJobs = co.resumedJobs
	co.reqMu.Unlock()
	// The journal is shared across planners, so its record count is read
	// once here rather than summed from the per-planner snapshots.
	st.WALRecords = 0
	if co.journal != nil {
		st.WALRecords = co.journal.Appended()
	}
	st.Epoch = co.epoch.get()
	st.ActiveJobs = len(jobs)
	// The ledger is shared across planners; snapshot it once.
	st.Tiers = co.ledger.snapshot()
	return st
}
