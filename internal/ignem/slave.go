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

// MediaReader performs the timed device read that brings a block from
// disk into memory. The datanode backs this with its media device, and
// verifies the stored replica against checksum (0 = unchecksummed)
// during the copy, so a rotten replica is never pinned.
type MediaReader interface {
	ReadForMigration(b dfs.Block, checksum uint32) error
}

// TierCopier is an optional MediaReader extension for the migration
// ladder: a timed copy between storage tiers (HDD→SSD lands a flash
// copy, SSD→RAM climbs the second rung reading from flash instead of
// the contended disk). Media that doesn't implement it falls back to
// ReadForMigration, i.e. every copy is charged as a disk read.
type TierCopier interface {
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
	// CleanupThreshold is the occupancy fraction above which the slave
	// sweeps reference lists for dead jobs. Default 0.75.
	CleanupThreshold float64
	// CleanupMinInterval rate-limits liveness sweeps. Default 10s.
	CleanupMinInterval time.Duration
	// FIFO disables smallest-job-first prioritization (the paper's
	// §IV-C5 ablation runs the queue in FIFO order instead).
	FIFO bool
	// AdaptiveThrottle enables Aqueduct-style feedback pacing (Lu et
	// al., FAST'02 — cited by the paper as complementary): when a
	// migration read observes a contended device (throughput below
	// ContendedThresholdMBps), the worker pauses for the duration of
	// that read before serving the next command, bounding migration's
	// impact on foreground I/O. Off by default: the paper's Ignem is
	// work-conserving.
	AdaptiveThrottle bool
	// ContendedThresholdMBps is the observed-throughput level below
	// which the device is considered contended. Default 60.
	ContendedThresholdMBps float64
}

func (c *SlaveConfig) setDefaults() {
	if c.Capacity <= 0 {
		c.Capacity = 32 << 30
	}
	if c.CleanupThreshold <= 0 {
		c.CleanupThreshold = 0.75
	}
	if c.CleanupMinInterval <= 0 {
		c.CleanupMinInterval = 10 * time.Second
	}
	if c.ContendedThresholdMBps <= 0 {
		c.ContendedThresholdMBps = 60
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
	// ThrottlePauses counts AdaptiveThrottle back-offs.
	ThrottlePauses int64
	// ReadFailures counts migration reads the media rejected — device
	// errors and checksum mismatches. The block stays unpinned; readers
	// fall back to disk (or another replica).
	ReadFailures int64
	// SSDPinnedBytes / SSDPinnedBlocks are the flash rung's occupancy.
	SSDPinnedBytes  int64
	SSDPinnedBlocks int
	// SSDHits counts block reads served from the flash rung.
	SSDHits int64
	// ClimbedBlocks counts SSD→RAM second-rung promotions completed.
	ClimbedBlocks int64
	// Demotions counts fast-tier residencies released by demote commands.
	Demotions int64
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

	epoch       uint64
	queue       migQueue
	deferred    []*migEntry
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
	pinnedBytes        int64
	// ssdBytes tracks flash-rung occupancy; Capacity bounds RAM only
	// (the master's cluster-wide SSD budget bounds the flash rung).
	ssdBytes int64
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
// new master's empty state).
func (s *Slave) ApplyMigrateBatch(b dfs.MigrateBatch) {
	var unpinned []tierPin
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	unpinned = s.adoptEpochLocked(b.Epoch)
	for _, cmd := range b.Cmds {
		s.queue.push(&migEntry{cmd: cmd, seq: s.queue.nextSeq()})
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

// ApplyDemoteBatch force-unpins the listed blocks from the named tier —
// the ladder's downward arm. Demotion ignores outstanding job references
// (the cold HDD replica still serves them) and is advisory: the master
// released the tier budget when it issued the command, so a block that
// is no longer resident, or has since climbed to a different tier, is
// simply skipped.
func (s *Slave) ApplyDemoteBatch(b dfs.DemoteBatch) {
	var unpinned []tierPin
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	unpinned = s.adoptEpochLocked(b.Epoch)
	for _, cmd := range b.Cmds {
		pb := s.pinned[cmd.Block]
		if pb == nil || pb.tier != cmd.Tier.EffectiveTarget() {
			continue
		}
		for job := range pb.refs {
			if jb := s.jobBlocks[job]; jb != nil {
				delete(jb, cmd.Block)
				if len(jb) == 0 {
					delete(s.jobBlocks, job)
				}
			}
		}
		delete(s.pinned, cmd.Block)
		if pb.tier == dfs.TierSSD {
			s.ssdBytes -= pb.size
		} else {
			s.pinnedBytes -= pb.size
		}
		s.stats.Demotions++
		unpinned = append(unpinned, tierPin{id: cmd.Block, tier: pb.tier})
	}
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

// OnBlockRead hooks the datanode read path. It reports whether the block
// was served from pinned memory, and performs implicit eviction when the
// reading job opted into it.
func (s *Slave) OnBlockRead(id dfs.BlockID, job dfs.JobID) (fromMemory bool) {
	tier, resident := s.OnBlockReadTier(id, job)
	return resident && tier == dfs.TierRAM
}

// OnBlockReadTier is the tier-aware read hook: it reports which tier
// the block is resident on (and whether it is resident at all), counts
// the hit against that tier, and performs implicit eviction when the
// reading job opted into it. The reference-list bookkeeping is
// tier-agnostic — a job's read releases its reference whether the copy
// sits in RAM or on flash.
func (s *Slave) OnBlockReadTier(id dfs.BlockID, job dfs.JobID) (tier dfs.Tier, resident bool) {
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

// IsPinned reports whether a block is currently in pinned memory.
func (s *Slave) IsPinned(id dfs.BlockID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pinned[id] != nil
}

// PinnedBytes returns the current pinned-memory occupancy.
func (s *Slave) PinnedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pinnedBytes
}

// SSDBytes returns the current flash-tier occupancy.
func (s *Slave) SSDBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ssdBytes
}

// Stats returns a snapshot of slave activity.
func (s *Slave) Stats() SlaveStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.PinnedBytes = s.pinnedBytes
	st.SSDPinnedBytes = s.ssdBytes
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
	s.pinnedBytes = 0
	s.ssdBytes = 0
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
	if pb.tier == dfs.TierSSD {
		s.ssdBytes -= pb.size
	} else {
		s.pinnedBytes -= pb.size
	}
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
		e := s.queue.pop()
		key := readKey{job: e.cmd.Job, block: e.cmd.Block.ID}
		if _, gone := s.evicted[e.cmd.Job]; gone {
			s.stats.DiscardedMissed++
			continue
		}
		if _, read := s.alreadyRead[key]; read {
			delete(s.alreadyRead, key)
			s.stats.DiscardedMissed++
			continue
		}
		target := e.cmd.Tier.EffectiveTarget()
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
				continue
			}
			if s.pinnedBytes+s.reserved+e.cmd.Block.Size > s.cfg.Capacity {
				// Do-not-harm: never evict an unread pinned block to admit a
				// new one. Defer until eviction frees space.
				s.deferred = append(s.deferred, e)
				s.maybeSweepLocked()
				continue
			}
			s.reserved += e.cmd.Block.Size // reserve before the slow read
		}
		epoch := s.epoch
		s.mu.Unlock()
		readStart := s.clock.Now()
		err := s.copyForMigration(e.cmd.Block, e.cmd.Checksum, dfs.TierHDD, target)
		readDur := s.clock.Now().Sub(readStart)
		if err == nil && s.cfg.AdaptiveThrottle && contended(e.cmd.Block.Size, readDur, s.cfg.ContendedThresholdMBps) {
			// Feedback pacing: the device is busy with foreground work;
			// back off for as long as the read took before migrating more.
			s.mu.Lock()
			s.stats.ThrottlePauses++
			s.mu.Unlock()
			s.clock.Sleep(readDur)
		}
		s.mu.Lock()

		if target == dfs.TierRAM {
			s.reserved -= e.cmd.Block.Size
		}
		if s.closed {
			return
		}
		if err != nil {
			s.stats.ReadFailures++
			continue
		}
		if epoch != s.epoch {
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
			continue
		}
		if target == dfs.TierSSD {
			s.ssdBytes += e.cmd.Block.Size
		} else {
			s.pinnedBytes += e.cmd.Block.Size
		}
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
		return false
	}
	if s.pinnedBytes+s.reserved+e.cmd.Block.Size > s.cfg.Capacity {
		s.deferred = append(s.deferred, e)
		s.maybeSweepLocked()
		return false
	}
	s.reserved += e.cmd.Block.Size
	epoch := s.epoch
	s.mu.Unlock()
	err := s.copyForMigration(e.cmd.Block, e.cmd.Checksum, dfs.TierSSD, dfs.TierRAM)
	s.mu.Lock()
	s.reserved -= e.cmd.Block.Size
	if s.closed {
		return true
	}
	if err != nil {
		s.stats.ReadFailures++
		return false
	}
	if epoch != s.epoch {
		return false
	}
	if cur := s.pinned[id]; cur != pb || cur.tier != dfs.TierSSD {
		// The block was unpinned, demoted, or already climbed while we
		// copied; nothing to flip.
		return false
	}
	pb.tier = dfs.TierRAM
	s.ssdBytes -= pb.size
	s.pinnedBytes += pb.size
	s.stats.ClimbedBlocks++
	s.addRefLocked(id, e.cmd.Job, e.cmd.Implicit)
	s.mu.Unlock()
	s.onPin(id, dfs.TierRAM, true)
	s.onPin(id, dfs.TierSSD, false)
	s.mu.Lock()
	return false
}

// copyForMigration moves a block's bytes between tiers. The historical
// HDD→RAM path goes through ReadForMigration unchanged (its cost model
// is part of the paper reproduction); other tier pairs use the media's
// TierCopier when it offers one, falling back to a plain device read.
func (s *Slave) copyForMigration(b dfs.Block, checksum uint32, from, to dfs.Tier) error {
	if from == dfs.TierHDD && to == dfs.TierRAM {
		return s.media.ReadForMigration(b, checksum)
	}
	if tc, ok := s.media.(TierCopier); ok {
		return tc.CopyForMigration(b, checksum, from, to)
	}
	return s.media.ReadForMigration(b, checksum)
}

// maybeSweepLocked purges reference lists of dead jobs when occupancy is
// above the cleanup threshold. It temporarily drops the lock to query the
// scheduler.
func (s *Slave) maybeSweepLocked() {
	if s.liveness == nil {
		return
	}
	if float64(s.pinnedBytes) < s.cfg.CleanupThreshold*float64(s.cfg.Capacity) {
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

// contended reports whether a read of size bytes over dur indicates a
// device throughput below thresholdMBps.
func contended(size int64, dur time.Duration, thresholdMBps float64) bool {
	if dur <= 0 {
		return false
	}
	mbps := float64(size) / dur.Seconds() / 1e6
	return mbps < thresholdMBps
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
