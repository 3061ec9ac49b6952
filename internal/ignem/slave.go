// Package ignem implements the paper's contribution: proactive upward
// migration of cold data into memory in a big data file system.
//
// The Master runs inside the namenode. It resolves a job's input files to
// blocks, picks one replica of each block, and pushes batched migration
// commands to the slaves. A Slave runs inside each datanode. It owns the
// pinned-memory region: a smallest-job-first migration queue served one
// block at a time, per-block reference lists of job IDs, explicit and
// implicit eviction, the do-not-harm rule (a pinned, unread block is
// never evicted to admit another), and a liveness sweep that purges jobs
// that died without evicting.
package ignem

import (
	"container/heap"
	"container/list"
	"sync"
	"time"

	"repro/internal/dfs"
	"repro/internal/simclock"
)

// MediaReader performs the timed copy that moves a block up a tier:
// HDD→RAM (the paper's migration read), HDD→SSD (the ladder's first
// rung) or SSD→RAM (its climb). The datanode backs it with its devices,
// and verifies the stored replica against checksum (0 = unchecksummed)
// whenever the copy reads the disk, so a rotten replica is never pinned.
type MediaReader interface {
	CopyForMigration(b dfs.Block, checksum uint32, from, to dfs.Tier) error
}

// Liveness answers whether a job is still running; the slave queries it
// (the cluster scheduler, in practice) to clean up after dead jobs.
type Liveness interface {
	IsActive(job dfs.JobID) bool
}

// PinListener observes pin-state transitions — at the tier the block is
// (or was) resident on — so the datanode can report them to the
// namenode on its next heartbeat. Implementations must be fast and safe
// to call from any goroutine.
type PinListener func(id dfs.BlockID, tier dfs.Tier, pinned bool)

// tierPin pairs a block with the tier a pin transition happened at.
type tierPin struct {
	id   dfs.BlockID
	tier dfs.Tier
}

// SlaveConfig tunes a slave.
type SlaveConfig struct {
	// Capacity is the pinned-memory budget in bytes (the paper's
	// configurable migration buffer threshold).
	Capacity int64
	// CleanupMinInterval rate-limits liveness sweeps. Default 10s.
	CleanupMinInterval time.Duration
	// FIFO disables smallest-job-first prioritization (the paper's
	// §IV-C5 ablation runs the queue in FIFO order instead).
	FIFO bool
}

// cleanupThreshold is the pinned-memory occupancy fraction above which
// a deferred command makes the slave sweep reference lists for dead
// jobs.
const cleanupThreshold = 0.75

func (c *SlaveConfig) setDefaults() {
	if c.Capacity <= 0 {
		c.Capacity = 32 << 30
	}
	if c.CleanupMinInterval <= 0 {
		c.CleanupMinInterval = 10 * time.Second
	}
}

// SlaveStats is a snapshot of slave activity.
type SlaveStats struct {
	PinnedBytes    int64
	PinnedBlocks   int
	QueuedCmds     int
	DeferredCmds   int
	MigratedBlocks int64
	MigratedBytes  int64
	// DiscardedMissed counts commands dropped because the job read the
	// block from disk before migration got to it.
	DiscardedMissed int64
	// RejectedTooLarge counts commands whose block exceeds the whole
	// buffer capacity.
	RejectedTooLarge int64
	Evictions        int64
	// PurgedJobs counts jobs removed by liveness sweeps.
	PurgedJobs int64
	// MemoryHits counts block reads served from pinned memory.
	MemoryHits int64
	// MemoryMisses counts block reads served from the media device.
	MemoryMisses int64
	// SSDPinnedBytes / SSDPinnedBlocks are the flash rung's occupancy.
	SSDPinnedBytes  int64
	SSDPinnedBlocks int
	// SSDHits counts block reads served from the flash rung.
	SSDHits int64
	// ClimbedBlocks counts SSD→RAM second-rung promotions completed.
	ClimbedBlocks int64
}

type readKey struct {
	job   dfs.JobID
	block dfs.BlockID
}

type pinnedBlock struct {
	size int64
	// tier is where the copy is resident: TierRAM (pinned memory, the
	// paper's original target) or TierSSD (the ladder's first rung). A
	// block climbs by flipping tier — it is resident on exactly one fast
	// tier at a time.
	tier dfs.Tier
	// refs maps each referencing job to whether it opted into implicit
	// eviction (the paper's per-job reference list).
	refs map[dfs.JobID]bool
}

// Slave is the per-datanode migration engine.
type Slave struct {
	clock    simclock.Clock
	cfg      SlaveConfig
	media    MediaReader
	liveness Liveness
	onPin    PinListener

	mu   sync.Mutex
	cond *simclock.Cond

	epoch    uint64
	queue    migQueue
	deferred []*migEntry
	// pending counts the queued and deferred commands per (block,
	// tier). Jobs that plan one block on this slave at one tier share
	// the master's budget charge, so a discarded command reports its
	// unpin only when no other command for the pair is still pending.
	pending     map[tierPin]int
	pinned      map[dfs.BlockID]*pinnedBlock
	jobBlocks   map[dfs.JobID]map[dfs.BlockID]struct{}
	alreadyRead map[readKey]struct{}
	// evicted tombstones completed jobs so migrate commands that are
	// still queued (or in flight) when the eviction arrives are
	// discarded instead of pinning memory for a dead job.
	// Each entry is its job's element of evictedOrder.
	evicted map[dfs.JobID]*list.Element
	// evictedOrder holds the tombstones least recently evicted first, so
	// expiry pops from the front instead of walking the map.
	evictedOrder list.List
	// tombstonesExamined counts the tombstones expiry has looked at;
	// TestTombstonePruneBounded holds it to O(1) per evict batch.
	tombstonesExamined int64
	// tierBytes is the resident bytes per fast tier, indexed by dfs.Tier.
	// Capacity bounds the RAM rung only (the master's cluster-wide SSD
	// budget bounds the flash rung).
	tierBytes [dfs.TierRAM + 1]int64
	// reserved is capacity claimed by the one in-flight migration read.
	reserved  int64
	lastSweep time.Time
	closed    bool

	stats SlaveStats
}

// NewSlave creates a slave and starts its migration worker. onPin may be
// nil. The worker serves the queue one block at a time (the paper's
// answer to disk-bandwidth degradation from concurrent reads) and is
// work-conserving.
func NewSlave(clock simclock.Clock, cfg SlaveConfig, media MediaReader, liveness Liveness, onPin PinListener) *Slave {
	cfg.setDefaults()
	s := &Slave{
		clock:       clock,
		cfg:         cfg,
		media:       media,
		liveness:    liveness,
		onPin:       onPin,
		pinned:      make(map[dfs.BlockID]*pinnedBlock),
		jobBlocks:   make(map[dfs.JobID]map[dfs.BlockID]struct{}),
		alreadyRead: make(map[readKey]struct{}),
		evicted:     make(map[dfs.JobID]*list.Element),
		pending:     make(map[tierPin]int),
	}
	if s.onPin == nil {
		s.onPin = func(dfs.BlockID, dfs.Tier, bool) {}
	}
	s.cond = simclock.NewCond(clock, &s.mu)
	s.queue.fifo = cfg.FIFO
	clock.Go(s.worker)
	return s
}

// ApplyMigrateBatch ingests a batch of migration commands from the
// master. A batch from a newer master epoch first purges all reference
// lists (the paper's master-failure recovery: slaves reset to match the
// new master's empty state). A command whose Tier is neither TierSSD
// nor TierRAM is dropped.
func (s *Slave) ApplyMigrateBatch(b dfs.MigrateBatch) {
	var unpinned []tierPin
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	unpinned = s.adoptEpochLocked(b.Epoch)
	for _, cmd := range b.Cmds {
		// A command names the rung it climbs to; any other tier (the
		// cold one, or a tag from outside the ladder) is malformed and
		// never reaches the device.
		if cmd.Tier != dfs.TierSSD && cmd.Tier != dfs.TierRAM {
			continue
		}
		s.queue.push(&migEntry{cmd: cmd, seq: s.queue.nextSeq()})
		s.pending[pendingKey(cmd)]++
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.notifyUnpinned(unpinned)
}

// ApplyEvictBatch removes jobs from block reference lists; blocks whose
// lists empty are unpinned immediately, keeping the memory footprint low.
func (s *Slave) ApplyEvictBatch(b dfs.EvictBatch) {
	var unpinned []tierPin
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	unpinned = s.adoptEpochLocked(b.Epoch)
	now := s.clock.Now()
	for _, cmd := range b.Cmds {
		unpinned = append(unpinned, s.dropRefLocked(cmd.Block, cmd.Job)...)
		// The job is done: forget any missed-read markers it left and
		// tombstone it so late migrate commands are discarded.
		delete(s.alreadyRead, readKey{job: cmd.Job, block: cmd.Block})
		s.tombstoneLocked(cmd.Job, now)
	}
	s.pruneTombstonesLocked(now)
	s.retryDeferredLocked()
	s.mu.Unlock()
	s.notifyUnpinned(unpinned)
}

// AdoptEpoch reconciles the slave with the master epoch it learned
// out-of-band (a revived datanode probes the namenode for it during
// re-registration). A changed epoch purges all reference lists and
// unpins everything, exactly as the first batch from a new master
// would; the current epoch is a no-op.
func (s *Slave) AdoptEpoch(epoch uint64) {
	var unpinned []tierPin
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	unpinned = s.adoptEpochLocked(epoch)
	s.mu.Unlock()
	s.notifyUnpinned(unpinned)
}

// ApplyReadNotifyBatch ingests a batch of remote-read notifications from
// the master: the named jobs consumed these blocks somewhere this slave
// could not observe (a client block-cache hit). It mirrors OnBlockRead's
// reference-list bookkeeping — an implicit reference is dropped, an
// unmigrated (job, block) is marked already-read so its queued migration
// is discarded — but touches no hit/miss counters: the slave served
// nothing.
func (s *Slave) ApplyReadNotifyBatch(b dfs.ReadNotifyBatch) {
	var unpinned []tierPin
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	unpinned = s.adoptEpochLocked(b.Epoch)
	for _, cmd := range b.Cmds {
		if cmd.Job == "" {
			continue
		}
		pb := s.pinned[cmd.Block]
		if pb != nil {
			if implicit, ok := pb.refs[cmd.Job]; ok && implicit {
				unpinned = append(unpinned, s.dropRefLocked(cmd.Block, cmd.Job)...)
			}
			continue
		}
		if _, gone := s.evicted[cmd.Job]; gone {
			continue
		}
		s.alreadyRead[readKey{job: cmd.Job, block: cmd.Block}] = struct{}{}
	}
	s.retryDeferredLocked()
	s.mu.Unlock()
	s.notifyUnpinned(unpinned)
}

// OnBlockRead is the datanode read path's hook: it reports which tier
// the block is resident on (and whether it is resident at all), counts
// the hit against that tier, and performs implicit eviction when the
// reading job opted into it. The reference-list bookkeeping is
// tier-agnostic — a job's read releases its reference whether the copy
// sits in RAM or on flash.
func (s *Slave) OnBlockRead(id dfs.BlockID, job dfs.JobID) (tier dfs.Tier, resident bool) {
	var unpinned []tierPin
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return dfs.TierHDD, false
	}
	pb := s.pinned[id]
	if pb != nil {
		resident = true
		tier = pb.tier
		if pb.tier == dfs.TierRAM {
			s.stats.MemoryHits++
		} else {
			s.stats.SSDHits++
		}
		if implicit, ok := pb.refs[job]; ok && implicit {
			unpinned = s.dropRefLocked(id, job)
		}
	} else {
		tier = dfs.TierHDD
		s.stats.MemoryMisses++
		if job != "" {
			// Migration for this (job, block) would now be wasted work:
			// mark it so a queued or in-flight command is discarded.
			s.alreadyRead[readKey{job: job, block: id}] = struct{}{}
		}
	}
	s.retryDeferredLocked()
	s.mu.Unlock()
	s.notifyUnpinned(unpinned)
	return tier, resident
}

// PinnedBytes returns the current pinned-memory occupancy.
func (s *Slave) PinnedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tierBytes[dfs.TierRAM]
}

// Stats returns a snapshot of slave activity.
func (s *Slave) Stats() SlaveStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.PinnedBytes = s.tierBytes[dfs.TierRAM]
	st.SSDPinnedBytes = s.tierBytes[dfs.TierSSD]
	for _, pb := range s.pinned {
		if pb.tier == dfs.TierSSD {
			st.SSDPinnedBlocks++
		} else {
			st.PinnedBlocks++
		}
	}
	st.QueuedCmds = s.queue.Len()
	st.DeferredCmds = len(s.deferred)
	return st
}

// Restart simulates a slave process restart: all pinned memory is
// discarded (the OS reclaims it) and the slave resumes with empty state,
// ready for new commands.
func (s *Slave) Restart() {
	var unpinned []tierPin
	s.mu.Lock()
	unpinned = s.purgeAllLocked()
	s.queue.clear()
	s.deferred = nil
	clear(s.pending)
	s.alreadyRead = make(map[readKey]struct{})
	s.clearTombstonesLocked()
	s.mu.Unlock()
	s.notifyUnpinned(unpinned)
}

// Close stops the worker. Pending commands are dropped.
func (s *Slave) Close() {
	s.mu.Lock()
	s.closed = true
	s.queue.clear()
	s.deferred = nil
	clear(s.pending)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// tombstone is the value of an evictedOrder element: job was last
// evicted at at.
type tombstone struct {
	job dfs.JobID
	at  time.Time
}

// tombstoneLocked records that job was evicted at now. A job evicted
// again moves to the back, so evictedOrder stays sorted by age: now is
// read under s.mu from a clock that does not run backwards.
func (s *Slave) tombstoneLocked(job dfs.JobID, now time.Time) {
	if e, ok := s.evicted[job]; ok {
		e.Value.(*tombstone).at = now
		s.evictedOrder.MoveToBack(e)
		return
	}
	s.evicted[job] = s.evictedOrder.PushBack(&tombstone{job: job, at: now})
}

// pruneTombstonesLocked drops eviction tombstones old enough that no
// command for their job can still be in flight. Below 1024 tombstones
// none is dropped. The expired ones are a prefix of evictedOrder, so
// the cost is the number dropped, not the number held.
func (s *Slave) pruneTombstonesLocked(now time.Time) {
	const tombstoneTTL = 10 * time.Minute
	if len(s.evicted) < 1024 {
		return
	}
	for e := s.evictedOrder.Front(); e != nil; e = s.evictedOrder.Front() {
		s.tombstonesExamined++
		t := e.Value.(*tombstone)
		if now.Sub(t.at) <= tombstoneTTL {
			return
		}
		s.evictedOrder.Remove(e)
		delete(s.evicted, t.job)
	}
}

func (s *Slave) clearTombstonesLocked() {
	s.evicted = make(map[dfs.JobID]*list.Element)
	s.evictedOrder.Init()
}

// adoptEpochLocked switches to a new master epoch, purging all reference
// lists, and returns the blocks that became unpinned.
func (s *Slave) adoptEpochLocked(epoch uint64) []tierPin {
	if epoch == s.epoch {
		return nil
	}
	unpinned := s.purgeAllLocked()
	s.epoch = epoch
	s.queue.clear()
	s.deferred = nil
	clear(s.pending)
	s.alreadyRead = make(map[readKey]struct{})
	s.clearTombstonesLocked()
	return unpinned
}

func (s *Slave) purgeAllLocked() []tierPin {
	unpinned := make([]tierPin, 0, len(s.pinned))
	for id, pb := range s.pinned {
		unpinned = append(unpinned, tierPin{id: id, tier: pb.tier})
	}
	s.pinned = make(map[dfs.BlockID]*pinnedBlock)
	s.jobBlocks = make(map[dfs.JobID]map[dfs.BlockID]struct{})
	s.tierBytes = [dfs.TierRAM + 1]int64{}
	return unpinned
}

// dropRefLocked removes job from the block's reference list and unpins
// the block if the list empties. It returns the unpinned blocks with the
// tier they were resident on.
func (s *Slave) dropRefLocked(id dfs.BlockID, job dfs.JobID) []tierPin {
	pb := s.pinned[id]
	if pb == nil {
		return nil
	}
	if _, ok := pb.refs[job]; !ok {
		return nil
	}
	delete(pb.refs, job)
	if jb := s.jobBlocks[job]; jb != nil {
		delete(jb, id)
		if len(jb) == 0 {
			delete(s.jobBlocks, job)
		}
	}
	if len(pb.refs) > 0 {
		return nil
	}
	delete(s.pinned, id)
	s.tierBytes[pb.tier] -= pb.size
	s.stats.Evictions++
	s.retryDeferredLocked()
	return []tierPin{{id: id, tier: pb.tier}}
}

func (s *Slave) addRefLocked(id dfs.BlockID, job dfs.JobID, implicit bool) {
	pb := s.pinned[id]
	if pb == nil {
		return
	}
	pb.refs[job] = implicit
	jb := s.jobBlocks[job]
	if jb == nil {
		jb = make(map[dfs.BlockID]struct{})
		s.jobBlocks[job] = jb
	}
	jb[id] = struct{}{}
}

// retryDeferredLocked moves deferred commands back into the queue so the
// worker re-evaluates them against the freed capacity.
func (s *Slave) retryDeferredLocked() {
	if len(s.deferred) == 0 {
		return
	}
	for _, e := range s.deferred {
		s.queue.push(e)
	}
	s.deferred = nil
	s.cond.Broadcast()
}

func (s *Slave) notifyUnpinned(pins []tierPin) {
	for _, p := range pins {
		s.onPin(p.id, p.tier, false)
	}
}

// pendingKey is the pending-count key of cmd.
func pendingKey(cmd dfs.MigrateCmd) tierPin { return tierPin{id: cmd.Block.ID, tier: cmd.Tier} }

// popLocked takes the next command off the queue; it is no longer
// pending.
func (s *Slave) popLocked() *migEntry {
	e := s.queue.pop()
	k := pendingKey(e.cmd)
	if s.pending[k]--; s.pending[k] <= 0 {
		delete(s.pending, k)
	}
	return e
}

// deferLocked parks a command that does not fit the RAM rung until an
// eviction frees space (the do-not-harm rule); it is pending again.
func (s *Slave) deferLocked(e *migEntry) {
	s.deferred = append(s.deferred, e)
	s.pending[pendingKey(e.cmd)]++
	s.maybeSweepLocked()
}

// dropLocked reports a command the worker discards as an unpin at its
// tier, so the master releases the budget charge it took when it
// planned the command. The charge stays while the block is resident at
// that tier (for another job), until it unpins, and while another
// job's command for the block and tier is pending, which shares it.
// Called with s.mu held, which it drops around the listener.
func (s *Slave) dropLocked(cmd dfs.MigrateCmd) {
	if pb := s.pinned[cmd.Block.ID]; pb != nil && pb.tier == cmd.Tier {
		return
	}
	if s.pending[pendingKey(cmd)] > 0 {
		return
	}
	s.mu.Unlock()
	s.onPin(cmd.Block.ID, cmd.Tier, false)
	s.mu.Lock()
}

// worker is the single migration loop: strictly one device read at a
// time, highest-priority command first, work-conserving.
func (s *Slave) worker() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for !s.closed && s.queue.Len() == 0 {
			s.cond.Wait()
		}
		if s.closed {
			return
		}
		e := s.popLocked()
		key := readKey{job: e.cmd.Job, block: e.cmd.Block.ID}
		if _, gone := s.evicted[e.cmd.Job]; gone {
			s.stats.DiscardedMissed++
			s.dropLocked(e.cmd)
			continue
		}
		if _, read := s.alreadyRead[key]; read {
			delete(s.alreadyRead, key)
			s.stats.DiscardedMissed++
			s.dropLocked(e.cmd)
			continue
		}
		target := e.cmd.Tier
		if pb := s.pinned[e.cmd.Block.ID]; pb != nil {
			if pb.tier >= target {
				// Already resident at (or above) the target rung
				// (migrated for another job): just extend the reference
				// list; no device read needed.
				s.addRefLocked(e.cmd.Block.ID, e.cmd.Job, e.cmd.Implicit)
				continue
			}
			// Climb: the block sits on flash and the master promoted it
			// to RAM. RAM capacity rules apply; the flash copy stays
			// until the climb lands.
			if s.climbLocked(e, pb) {
				return
			}
			continue
		}
		if target == dfs.TierRAM {
			// Memory capacity governs only the RAM rung; flash admission
			// is bounded by the master's per-tier budget.
			if e.cmd.Block.Size > s.cfg.Capacity {
				s.stats.RejectedTooLarge++
				s.dropLocked(e.cmd)
				continue
			}
			if s.tierBytes[dfs.TierRAM]+s.reserved+e.cmd.Block.Size > s.cfg.Capacity {
				// Do-not-harm: never evict an unread pinned block to admit a
				// new one. Defer until eviction frees space.
				s.deferLocked(e)
				continue
			}
			s.reserved += e.cmd.Block.Size // reserve before the slow read
		}
		epoch := s.epoch
		s.mu.Unlock()
		// A failed copy (a device error or a checksum mismatch) leaves the
		// block unpinned; readers fall back to disk or another replica.
		err := s.media.CopyForMigration(e.cmd.Block, e.cmd.Checksum, dfs.TierHDD, target)
		s.mu.Lock()

		if target == dfs.TierRAM {
			s.reserved -= e.cmd.Block.Size
		}
		if s.closed {
			return
		}
		if err != nil || epoch != s.epoch {
			s.dropLocked(e.cmd)
			continue
		}
		_, read := s.alreadyRead[key]
		_, gone := s.evicted[e.cmd.Job]
		if read || gone {
			// The job raced us — it read the block from disk or finished
			// entirely while we migrated; pinning now would only waste
			// memory.
			delete(s.alreadyRead, key)
			s.stats.DiscardedMissed++
			s.dropLocked(e.cmd)
			continue
		}
		s.tierBytes[target] += e.cmd.Block.Size
		s.pinned[e.cmd.Block.ID] = &pinnedBlock{size: e.cmd.Block.Size, refs: make(map[dfs.JobID]bool), tier: target}
		s.addRefLocked(e.cmd.Block.ID, e.cmd.Job, e.cmd.Implicit)
		s.stats.MigratedBlocks++
		s.stats.MigratedBytes += e.cmd.Block.Size
		s.mu.Unlock()
		s.onPin(e.cmd.Block.ID, target, true)
		s.mu.Lock()
	}
}

// climbLocked copies a flash-resident block into memory and flips its
// tier. Called with the mutex held; returns true when the slave closed
// mid-copy and the worker must exit. The flash copy is only released
// (and the pin listener told) once the RAM copy lands, so a crash
// mid-climb leaves the block safely on flash.
func (s *Slave) climbLocked(e *migEntry, pb *pinnedBlock) (closed bool) {
	id := e.cmd.Block.ID
	if e.cmd.Block.Size > s.cfg.Capacity {
		s.stats.RejectedTooLarge++
		s.dropLocked(e.cmd)
		return false
	}
	if s.tierBytes[dfs.TierRAM]+s.reserved+e.cmd.Block.Size > s.cfg.Capacity {
		s.deferLocked(e)
		return false
	}
	s.reserved += e.cmd.Block.Size
	epoch := s.epoch
	s.mu.Unlock()
	err := s.media.CopyForMigration(e.cmd.Block, e.cmd.Checksum, dfs.TierSSD, dfs.TierRAM)
	s.mu.Lock()
	s.reserved -= e.cmd.Block.Size
	if s.closed {
		return true
	}
	if err != nil || epoch != s.epoch {
		s.dropLocked(e.cmd)
		return false
	}
	if cur := s.pinned[id]; cur != pb || cur.tier != dfs.TierSSD {
		// The block was unpinned or already climbed while we
		// copied; nothing to flip.
		s.dropLocked(e.cmd)
		return false
	}
	pb.tier = dfs.TierRAM
	s.tierBytes[dfs.TierSSD] -= pb.size
	s.tierBytes[dfs.TierRAM] += pb.size
	s.stats.ClimbedBlocks++
	s.addRefLocked(id, e.cmd.Job, e.cmd.Implicit)
	s.mu.Unlock()
	s.onPin(id, dfs.TierRAM, true)
	s.onPin(id, dfs.TierSSD, false)
	s.mu.Lock()
	return false
}

// maybeSweepLocked purges reference lists of dead jobs when occupancy is
// above the cleanup threshold. It temporarily drops the lock to query the
// scheduler.
func (s *Slave) maybeSweepLocked() {
	if s.liveness == nil {
		return
	}
	if float64(s.tierBytes[dfs.TierRAM]) < cleanupThreshold*float64(s.cfg.Capacity) {
		return
	}
	now := s.clock.Now()
	if now.Sub(s.lastSweep) < s.cfg.CleanupMinInterval {
		return
	}
	s.lastSweep = now

	jobs := make([]dfs.JobID, 0, len(s.jobBlocks))
	for job := range s.jobBlocks {
		jobs = append(jobs, job)
	}
	epoch := s.epoch
	s.mu.Unlock()
	dead := make([]dfs.JobID, 0, len(jobs))
	for _, job := range jobs {
		if !s.liveness.IsActive(job) {
			dead = append(dead, job)
		}
	}
	s.mu.Lock()
	if s.closed || epoch != s.epoch {
		return
	}
	var unpinned []tierPin
	for _, job := range dead {
		blocks := s.jobBlocks[job]
		ids := make([]dfs.BlockID, 0, len(blocks))
		for id := range blocks {
			ids = append(ids, id)
		}
		for _, id := range ids {
			unpinned = append(unpinned, s.dropRefLocked(id, job)...)
		}
		for key := range s.alreadyRead {
			if key.job == job {
				delete(s.alreadyRead, key)
			}
		}
		s.stats.PurgedJobs++
	}
	if len(unpinned) > 0 {
		s.mu.Unlock()
		s.notifyUnpinned(unpinned)
		s.mu.Lock()
	}
}

// migEntry is one queued migration command.
type migEntry struct {
	cmd dfs.MigrateCmd
	seq uint64
	idx int
}

// migQueue is the slave's pending-command queue: a heap ordered by
// smallest job input size (then submit time, then arrival order), or pure
// FIFO when the prioritization ablation is enabled.
type migQueue struct {
	entries []*migEntry
	fifo    bool
	seq     uint64
}

func (q *migQueue) nextSeq() uint64 {
	q.seq++
	return q.seq
}

func (q *migQueue) Len() int { return len(q.entries) }

func (q *migQueue) Less(i, j int) bool {
	a, b := q.entries[i], q.entries[j]
	if q.fifo {
		return a.seq < b.seq
	}
	if a.cmd.JobInputSize != b.cmd.JobInputSize {
		return a.cmd.JobInputSize < b.cmd.JobInputSize
	}
	if !a.cmd.SubmitTime.Equal(b.cmd.SubmitTime) {
		return a.cmd.SubmitTime.Before(b.cmd.SubmitTime)
	}
	// Within one job, migrate the most recently enqueued block first
	// (LIFO). Tasks consume a job's blocks front to back, so working
	// from the back keeps migration disjoint from the task frontier
	// instead of racing it and losing to missed reads.
	return a.seq > b.seq
}

func (q *migQueue) Swap(i, j int) {
	q.entries[i], q.entries[j] = q.entries[j], q.entries[i]
	q.entries[i].idx = i
	q.entries[j].idx = j
}

func (q *migQueue) Push(x any) {
	e := x.(*migEntry)
	e.idx = len(q.entries)
	q.entries = append(q.entries, e)
}

func (q *migQueue) Pop() any {
	old := q.entries
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	q.entries = old[:n-1]
	return e
}

func (q *migQueue) push(e *migEntry) { heap.Push(q, e) }

func (q *migQueue) pop() *migEntry { return heap.Pop(q).(*migEntry) }

func (q *migQueue) clear() { q.entries = nil }
