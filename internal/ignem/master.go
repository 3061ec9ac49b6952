package ignem

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/dfs"
)

// Resolver maps file paths to located blocks; the namenode's block
// manager backs this.
type Resolver interface {
	Resolve(path string) ([]dfs.LocatedBlock, error)
}

// SlaveLink delivers command batches to a slave by datanode address; the
// namenode backs this with RPC clients (or direct calls in tests).
type SlaveLink interface {
	SendMigrate(addr string, batch dfs.MigrateBatch) error
	SendEvict(addr string, batch dfs.EvictBatch) error
	SendReadNotify(addr string, batch dfs.ReadNotifyBatch) error
}

// DemoteSender is an optional SlaveLink extension for the tier ladder:
// delivery of demote batches (release a fast-tier residency without
// evicting the job). Links that don't implement it simply never carry
// demotions — only tier-configured masters issue them. Demotes are
// advisory at-most-once sends: the budget was already released durably,
// and a lost demote only leaves the slave's copy resident until the
// owning jobs evict.
type DemoteSender interface {
	SendDemote(addr string, batch dfs.DemoteBatch) error
}

// MasterStats is a snapshot of master activity.
type MasterStats struct {
	Epoch       uint64
	ActiveJobs  int
	MigrateReqs int64
	EvictReqs   int64
	// ReadNotifies counts cache-hit read notifications forwarded to
	// slaves (blocks, not batches).
	ReadNotifies   int64
	BlocksAssigned int64
	BytesAssigned  int64
	SendErrors     int64
	// SendFailures counts command batches that failed transport and were
	// parked on the journal-backed retry queue instead of dropped (only
	// a journaled master retries; SendErrors still counts every failure
	// for compatibility with older scenarios).
	SendFailures int64
	// RetriedBatches counts parked batches later delivered by the retry
	// pump.
	RetriedBatches int64
	// PendingRetries is the retry queue's length at snapshot time.
	PendingRetries int
	// WALRecords counts journal records appended since the journal was
	// attached or last replayed.
	WALRecords int64
	// WALReplayed counts journal records decoded by the most recent
	// recovery.
	WALReplayed int64
	// ResumedJobs counts live (un-evicted) jobs rebuilt from the journal
	// across all recoveries.
	ResumedJobs int64
	// Tiers is the tier ladder's budget accounting (occupancy,
	// promotions, demotions, rejects). All-zero without a configured
	// tier plane.
	Tiers TierCounters
}

// epochCounter is a master epoch shared by every planner of a
// partitioned master. Slaves hold ONE epoch and purge all state when it
// changes, so per-shard planners must stamp their batches from a common
// counter — independent epochs would make shards' batches purge each
// other's pins on every interleaving.
type epochCounter struct {
	mu sync.Mutex
	v  uint64
}

func newEpochCounter(v uint64) *epochCounter { return &epochCounter{v: v} }

func (e *epochCounter) get() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.v
}

func (e *epochCounter) bump() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.v++
	return e.v
}

// set restores a journaled epoch during WAL recovery. Recovery
// deliberately does NOT bump: the restarted master resumes the same
// epoch, so slaves keep their pins and re-sent batches are idempotent
// no-ops instead of purges.
func (e *epochCounter) set(v uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.v = v
}

// Master is a migration planner that runs inside the namenode. It
// decides *what* to migrate; the slaves decide *how* and *when*. A
// cluster runs one Master per metadata shard (one at shard count 1),
// all behind a Coordinator that owns the cross-shard concerns: the
// shared epoch, request fan-out, and stats merging.
type Master struct {
	resolver Resolver
	link     SlaveLink
	rng      *rand.Rand
	// epoch is shared with the sibling shard planners (and the
	// Coordinator); a standalone master owns its counter alone.
	epoch *epochCounter

	// Tier plane, shared across sibling shards (nil on a default
	// master — every consulting code path then short-circuits to the
	// paper's pin-in-RAM behavior). policy picks tiers, ledger enforces
	// the budgets, pop scores the read-notification stream.
	policy Policy
	ledger *tierLedger
	pop    *popTracker

	mu sync.Mutex
	// jobs records, per job, the placement chosen for each block (and
	// enough metadata to re-issue ladder rungs) so evictions go to the
	// replica that was migrated and climbs can rebuild their commands.
	jobs  map[dfs.JobID]*jobState
	stats MasterStats
	// journal, when attached, makes planning durable-before-send and
	// parks transport-failed batches on retries instead of dropping
	// them. Nil for an unjournaled master (the historical behavior).
	journal *Journal
	// retries holds batches that failed transport, re-sent by the retry
	// pump until they deliver or their epoch goes stale.
	retries []retryBatch
}

// jobState is one job's planning record: the per-block placements plus
// the metadata every MigrateCmd for the job must carry (so the ladder's
// second rung can mint commands without re-resolving the job).
type jobState struct {
	implicit   bool
	inputSize  int64
	submitTime time.Time
	blocks     map[dfs.BlockID]*assignment
}

// assignment is one block's placement: the replica address chosen for
// the migration and the tier currently targeted (the rung in flight).
type assignment struct {
	addr     string
	size     int64
	checksum uint32
	tier     dfs.Tier
}

// retryBatch is one parked command batch. Exactly one of migrate/evict
// is non-nil. Batches are job-pure (a migrate batch always carries one
// job's commands), so a delivery can be journaled against its job.
type retryBatch struct {
	epoch   uint64
	addr    string
	job     dfs.JobID
	migrate []dfs.MigrateCmd
	evict   []dfs.EvictCmd
}

func (rb retryBatch) blockIDs() []dfs.BlockID {
	var ids []dfs.BlockID
	for _, c := range rb.migrate {
		ids = append(ids, c.Block.ID)
	}
	for _, c := range rb.evict {
		ids = append(ids, c.Block)
	}
	return ids
}

// NewMaster creates a standalone master with the given block resolver
// and slave link. The seed drives the random single-replica choice.
func NewMaster(resolver Resolver, link SlaveLink, seed int64) *Master {
	return newShardMaster(resolver, link, seed, newEpochCounter(1))
}

// newShardMaster creates one shard's planner sharing the given epoch
// counter.
func newShardMaster(resolver Resolver, link SlaveLink, seed int64, epoch *epochCounter) *Master {
	return &Master{
		resolver: resolver,
		link:     link,
		rng:      rand.New(rand.NewSource(seed)),
		epoch:    epoch,
		jobs:     make(map[dfs.JobID]*jobState),
	}
}

// setTierPlane installs the shared policy, budget ledger, and
// popularity tracker (the Coordinator configures all shards from one
// set). Must be called before the master serves requests.
func (m *Master) setTierPlane(p Policy, l *tierLedger, pop *popTracker) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.policy = p
	m.ledger = l
	m.pop = pop
}

// Migrate handles a client migrate request: resolve files to blocks,
// choose one replica per block at random (network bandwidth is plentiful,
// so one in-memory copy suffices), and push batched commands to the
// slaves. It returns how much work was enqueued.
func (m *Master) Migrate(req dfs.MigrateReq) (dfs.MigrateResp, error) {
	if req.Job == "" {
		return dfs.MigrateResp{}, fmt.Errorf("ignem: migrate with empty job ID")
	}
	var located []dfs.LocatedBlock
	for _, path := range req.Paths {
		blocks, err := m.resolver.Resolve(path)
		if err != nil {
			return dfs.MigrateResp{}, fmt.Errorf("ignem: resolve %s: %w", path, err)
		}
		located = append(located, blocks...)
	}
	var totalSize int64
	for _, lb := range located {
		totalSize += lb.Block.Size
	}

	m.mu.Lock()
	m.stats.MigrateReqs++
	m.mu.Unlock()
	blocks, bytes, err := m.migrateLocated(req.Job, located, totalSize, req.SubmitTime, req.Implicit)
	if err != nil {
		return dfs.MigrateResp{}, err
	}
	return dfs.MigrateResp{Blocks: blocks, Bytes: bytes}, nil
}

// migrateLocated assigns one replica per not-yet-assigned block and
// pushes the batched commands to the slaves. totalSize is the job's
// WHOLE input size — across every shard when the job's files span
// shards — because it drives the slaves' smallest-job-first priority:
// stamping a per-shard subtotal would let one sort's shard fragments
// jump the global order. The request counter is the caller's concern
// (the Coordinator counts a cross-shard request once, not once per
// planner touched).
//
// With a journal attached the plan is made durable BEFORE anything is
// assigned or sent: a failed append returns an error with no state
// change at all (master-crash model — if the log can't be written, the
// master is dead and the client's Migrate fails with it).
func (m *Master) migrateLocated(job dfs.JobID, located []dfs.LocatedBlock, totalSize int64, submitTime time.Time, implicit bool) (int, int64, error) {
	m.mu.Lock()
	epoch := m.epoch.get()
	js := m.jobs[job]
	batches := make(map[string][]dfs.MigrateCmd)
	demotes := make(map[string][]dfs.DemoteCmd)
	var entries []planEntry
	var charges []charge
	pending := make(map[dfs.BlockID]struct{})
	ssdOn := m.ledger.ssdEnabled()
	var blocks int
	var bytes int64
	for _, lb := range located {
		if len(lb.Nodes) == 0 {
			continue // no live replica; nothing to migrate
		}
		if js != nil {
			if _, dup := js.blocks[lb.Block.ID]; dup {
				continue // already requested for this job
			}
		}
		if _, dup := pending[lb.Block.ID]; dup {
			continue // duplicate within this request
		}
		pending[lb.Block.ID] = struct{}{}
		addr := lb.Nodes[m.rng.Intn(len(lb.Nodes))]
		tier := dfs.TierRAM
		if m.policy != nil {
			tier = m.planTierLocked(job, lb.Block, totalSize, addr, ssdOn, demotes, &charges)
			if tier == dfs.TierHDD {
				continue // budget-rejected on every rung; the block stays on disk
			}
		}
		entries = append(entries, planEntry{ID: lb.Block.ID, Size: lb.Block.Size, Checksum: lb.Checksum, Addr: addr, Tier: tier})
		batches[addr] = append(batches[addr], dfs.MigrateCmd{
			Block:        lb.Block,
			Job:          job,
			JobInputSize: totalSize,
			SubmitTime:   submitTime,
			Implicit:     implicit,
			Checksum:     lb.Checksum,
			Tier:         tier,
		})
		blocks++
		bytes += lb.Block.Size
	}
	if m.journal != nil && len(entries) > 0 {
		// Demote releases go down first: on replay the freed budget must
		// exist before the plan that consumed it re-charges.
		journalErr := m.journalDemotesLocked(demotes)
		if journalErr == nil {
			journalErr = m.journal.AppendPlan(epoch, job, implicit, totalSize, submitTime, entries)
		}
		if journalErr != nil {
			for _, c := range charges {
				m.ledger.release(c.id, c.addr, c.tier, false)
			}
			m.mu.Unlock()
			return 0, 0, fmt.Errorf("ignem: journal plan for job %s: %w", job, journalErr)
		}
	}
	if js == nil {
		// Created even for an empty fragment: a migrate request always
		// registers the job (ActiveJobs, idempotent re-migrate).
		js = &jobState{blocks: make(map[dfs.BlockID]*assignment)}
		m.jobs[job] = js
	}
	js.implicit = implicit
	js.inputSize = totalSize
	js.submitTime = submitTime
	for _, e := range entries {
		js.blocks[e.ID] = &assignment{addr: e.Addr, size: e.Size, checksum: e.Checksum, tier: e.Tier}
	}
	m.stats.BlocksAssigned += int64(blocks)
	m.stats.BytesAssigned += bytes
	m.mu.Unlock()

	m.sendDemotes(epoch, demotes)
	m.sendMigrateBatches(epoch, job, batches)
	return blocks, bytes, nil
}

// charge records one fresh ledger reservation taken while planning, so
// a journal failure can roll back exactly what this request charged.
type charge struct {
	id   dfs.BlockID
	addr string
	tier dfs.Tier
}

// planTierLocked runs the policy for one block: pick a tier, reserve
// budget for it (demoting victims the policy offers when the budget is
// short), and fall one rung at a time when a reservation cannot be
// made. TierHDD means no rung admitted the block.
func (m *Master) planTierLocked(job dfs.JobID, b dfs.Block, totalSize int64, addr string, ssdOn bool, demotes map[string][]dfs.DemoteCmd, charges *[]charge) dfs.Tier {
	ctx := PlanContext{Job: job, Block: b, JobInputSize: totalSize, Popularity: m.pop.get(b.ID), SSDEnabled: ssdOn}
	tier := m.policy.PlanTier(ctx)
	if tier == dfs.TierSSD && !ssdOn {
		tier = dfs.TierRAM
	}
	for tier > dfs.TierHDD {
		if m.tryReserveLocked(job, b, addr, tier, demotes, charges) {
			return tier
		}
		m.ledger.noteReject(tier)
		if tier == dfs.TierRAM && ssdOn {
			tier = dfs.TierSSD
			continue
		}
		tier = dfs.TierHDD
	}
	return dfs.TierHDD
}

// tryReserveLocked attempts a budget reservation at tier, demoting
// policy-chosen victims to make room when the tier is over budget.
func (m *Master) tryReserveLocked(job dfs.JobID, b dfs.Block, addr string, tier dfs.Tier, demotes map[string][]dfs.DemoteCmd, charges *[]charge) bool {
	if need := m.ledger.shortfall(tier, b.Size); need > 0 {
		victims := m.policy.Victims(tier, need, m.ledger.residents(tier, m.pop))
		if len(victims) == 0 {
			return false
		}
		for _, v := range victims {
			m.ledger.release(v.ID, v.Addr, tier, true)
			demotes[v.Addr] = append(demotes[v.Addr], dfs.DemoteCmd{Block: v.ID, Tier: tier})
		}
	}
	ok, fresh := m.ledger.reserve(b.ID, addr, b.Size, job, tier, false)
	if fresh {
		*charges = append(*charges, charge{id: b.ID, addr: addr, tier: tier})
	}
	return ok
}

// journalDemotesLocked makes this plan's demotions durable, grouped by
// (addr, tier).
func (m *Master) journalDemotesLocked(demotes map[string][]dfs.DemoteCmd) error {
	for _, addr := range sortedKeys(demotes) {
		perTier := make(map[dfs.Tier][]dfs.BlockID)
		for _, c := range demotes[addr] {
			perTier[c.Tier] = append(perTier[c.Tier], c.Block)
		}
		for _, tier := range []dfs.Tier{dfs.TierSSD, dfs.TierRAM} {
			if ids := perTier[tier]; len(ids) > 0 {
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				if err := m.journal.AppendDemote(addr, tier, ids); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// sendDemotes delivers demote batches. Failures only count: the budget
// release is already durable, and the slave's stale copy drains when
// its jobs evict.
func (m *Master) sendDemotes(epoch uint64, demotes map[string][]dfs.DemoteCmd) {
	if len(demotes) == 0 {
		return
	}
	ds, ok := m.link.(DemoteSender)
	if !ok {
		return
	}
	for _, addr := range sortedKeys(demotes) {
		cmds := demotes[addr]
		sort.Slice(cmds, func(i, j int) bool { return cmds[i].Block < cmds[j].Block })
		if err := ds.SendDemote(addr, dfs.DemoteBatch{Epoch: epoch, Cmds: cmds}); err != nil {
			m.mu.Lock()
			m.stats.SendErrors++
			m.mu.Unlock()
		}
	}
}

// sendMigrateBatches delivers a job's planned batches. A transport
// failure parks the batch for retry (when journaled — a bare master
// keeps the historical drop-and-count behavior); a journal failure
// recording a delivery stops the loop, since a master that can't write
// its log is dead (undelivered batches stay planned-not-copied in the
// journal and are re-sent on recovery).
func (m *Master) sendMigrateBatches(epoch uint64, job dfs.JobID, batches map[string][]dfs.MigrateCmd) {
	for _, addr := range sortedKeys(batches) {
		cmds := batches[addr]
		if err := m.link.SendMigrate(addr, dfs.MigrateBatch{Epoch: epoch, Cmds: cmds}); err != nil {
			m.parkBatch(retryBatch{epoch: epoch, addr: addr, job: job, migrate: cmds})
			continue
		}
		if !m.journalDelivery(retryBatch{addr: addr, job: job, migrate: cmds}) {
			return
		}
	}
}

// parkBatch counts a transport failure and, when a journal is attached,
// queues the batch for the retry pump.
func (m *Master) parkBatch(rb retryBatch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.SendErrors++
	if m.journal == nil {
		return
	}
	m.stats.SendFailures++
	m.retries = append(m.retries, rb)
}

// journalDelivery records a delivered batch (recCopied or
// recEvictBatch). It reports false when the journal append failed —
// the caller must stop sending, because nothing past this point can be
// made durable. Migrate deliveries are journaled per target tier, so
// replay matches each delivery against the rung it belongs to.
func (m *Master) journalDelivery(rb retryBatch) bool {
	m.mu.Lock()
	j := m.journal
	m.mu.Unlock()
	if j == nil {
		return true
	}
	if rb.migrate == nil {
		return j.AppendEvictBatch(rb.job, rb.addr, rb.blockIDs()) == nil
	}
	perTier := make(map[dfs.Tier][]dfs.BlockID)
	for _, c := range rb.migrate {
		t := c.Tier.EffectiveTarget()
		perTier[t] = append(perTier[t], c.Block.ID)
	}
	for _, tier := range []dfs.Tier{dfs.TierSSD, dfs.TierRAM} {
		if ids := perTier[tier]; len(ids) > 0 {
			if err := j.AppendCopied(rb.job, rb.addr, tier, ids); err != nil {
				return false
			}
		}
	}
	return true
}

// Evict handles a job-completion eviction: every block recorded for the
// job is released on the slave it was assigned to, and the job's master
// state is dropped.
func (m *Master) Evict(req dfs.EvictReq) (dfs.EvictResp, error) {
	m.mu.Lock()
	m.stats.EvictReqs++
	m.mu.Unlock()
	blocks, err := m.evictJob(req.Job)
	if err != nil {
		return dfs.EvictResp{}, err
	}
	return dfs.EvictResp{Blocks: blocks}, nil
}

// evictJob releases every block this planner recorded for the job and
// drops the job's state, returning how many evict notifications went
// out. A planner that never saw the job is a no-op. With a journal
// attached the eviction intent is durable before anything is sent or
// dropped; a failed intent append leaves the job fully intact (the
// crash model again — the Evict call fails with the dead master).
// Parked migrate retries for the job are cancelled, so the retry pump
// can never re-pin a block the job already released.
func (m *Master) evictJob(job dfs.JobID) (int, error) {
	m.mu.Lock()
	epoch := m.epoch.get()
	js := m.jobs[job]
	assignedLen := 0
	if js != nil {
		assignedLen = len(js.blocks)
	}
	hasRetries := false
	for _, rb := range m.retries {
		if rb.job == job {
			hasRetries = true
			break
		}
	}
	if m.journal != nil && (assignedLen > 0 || hasRetries) {
		if err := m.journal.AppendEvictIntent(job); err != nil {
			m.mu.Unlock()
			return 0, fmt.Errorf("ignem: journal evict intent for job %s: %w", job, err)
		}
	}
	delete(m.jobs, job)
	if hasRetries {
		kept := m.retries[:0]
		for _, rb := range m.retries {
			if rb.job == job && rb.migrate != nil {
				continue
			}
			kept = append(kept, rb)
		}
		m.retries = kept
	}
	batches := make(map[string][]dfs.EvictCmd)
	blocks := 0
	if js != nil {
		for id, a := range js.blocks {
			batches[a.addr] = append(batches[a.addr], dfs.EvictCmd{Block: id, Job: job})
			blocks++
			// The ledger keeps the residency's charges (the slave still
			// holds the bytes until its unpin delta) but the job's
			// reference drops, making the block a colder demotion victim.
			m.ledger.dropRef(id, a.addr, job)
		}
	}
	m.mu.Unlock()

	for _, addr := range sortedKeys(batches) {
		cmds := batches[addr]
		sort.Slice(cmds, func(i, j int) bool { return cmds[i].Block < cmds[j].Block })
		if err := m.link.SendEvict(addr, dfs.EvictBatch{Epoch: epoch, Cmds: cmds}); err != nil {
			m.parkBatch(retryBatch{epoch: epoch, addr: addr, job: job, evict: cmds})
			continue
		}
		if !m.journalDelivery(retryBatch{addr: addr, job: job, evict: cmds}) {
			break
		}
	}
	return blocks, nil
}

// flushRetries re-sends every parked batch whose epoch is still
// current; failures park again, stale epochs drop (a restart purged the
// slaves, so the batch's state is gone anyway). Deliveries are
// journaled like first-time sends.
func (m *Master) flushRetries() {
	m.mu.Lock()
	pending := m.retries
	m.retries = nil
	epoch := m.epoch.get()
	m.mu.Unlock()
	if len(pending) == 0 {
		return
	}
	var requeue []retryBatch
	for _, rb := range pending {
		if rb.epoch != epoch {
			continue
		}
		if rb.migrate != nil && !m.jobLive(rb.job) {
			continue // evicted while parked; never re-pin
		}
		var err error
		if rb.migrate != nil {
			err = m.link.SendMigrate(rb.addr, dfs.MigrateBatch{Epoch: rb.epoch, Cmds: rb.migrate})
		} else {
			err = m.link.SendEvict(rb.addr, dfs.EvictBatch{Epoch: rb.epoch, Cmds: rb.evict})
		}
		if err != nil {
			requeue = append(requeue, rb)
			continue
		}
		m.mu.Lock()
		m.stats.RetriedBatches++
		m.mu.Unlock()
		m.journalDelivery(rb)
	}
	if len(requeue) > 0 {
		m.mu.Lock()
		m.retries = append(requeue, m.retries...)
		m.mu.Unlock()
	}
}

func (m *Master) jobLive(job dfs.JobID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.jobs[job]
	return ok
}

// notePinned records heartbeat-confirmed pins at tier against the
// journal: addr now holds the listed blocks pinned and
// checksum-verified, which is the state machine's swapped/checked
// stage. Blocks the planner never assigned (or assigned elsewhere, or
// at another tier) are ignored. For SSD pins it then consults the
// policy for the ladder's second rung, promoting qualifying blocks
// SSD→RAM.
func (m *Master) notePinned(addr string, tier dfs.Tier, blocks []dfs.BlockID) {
	m.mu.Lock()
	j := m.journal
	pol := m.policy
	if j == nil && pol == nil {
		m.mu.Unlock()
		return
	}
	perJob := make(map[dfs.JobID][]dfs.BlockID)
	for job, js := range m.jobs {
		for _, id := range blocks {
			if a := js.blocks[id]; a != nil && a.addr == addr && a.tier == tier {
				perJob[job] = append(perJob[job], id)
			}
		}
	}
	m.mu.Unlock()
	if j != nil {
		for _, job := range sortedJobs(perJob) {
			ids := perJob[job]
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			// Append failures are ignored: pins re-confirm on the next
			// heartbeat, and a lost recPinned only costs recovery one
			// redundant (idempotent) re-send.
			_ = j.AppendPinned(job, addr, tier, ids)
		}
	}
	if pol != nil && tier == dfs.TierSSD {
		m.climb(addr, perJob)
	}
}

// climb issues the ladder's second rung: for blocks just confirmed
// pinned on addr's SSD, ask the policy whether they earn RAM, reserve
// RAM budget (no victim demotion for climbs — a full RAM simply leaves
// the block on flash), journal the re-plan, and send the RAM-rung
// migrate commands. The slave reads the block from its SSD copy and
// releases the flash residency once the RAM pin lands.
func (m *Master) climb(addr string, perJob map[dfs.JobID][]dfs.BlockID) {
	m.mu.Lock()
	epoch := m.epoch.get()
	type jobClimb struct {
		entries []planEntry
		cmds    []dfs.MigrateCmd
	}
	plans := make(map[dfs.JobID]*jobClimb)
	for _, job := range sortedJobs(perJob) {
		js := m.jobs[job]
		if js == nil {
			continue
		}
		ids := perJob[job]
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			a := js.blocks[id]
			if a == nil || a.addr != addr || a.tier != dfs.TierSSD {
				continue
			}
			ctx := PlanContext{
				Job:          job,
				Block:        dfs.Block{ID: id, Size: a.size},
				JobInputSize: js.inputSize,
				Popularity:   m.pop.get(id),
				SSDEnabled:   true,
			}
			if m.policy.ClimbTier(ctx, dfs.TierSSD) != dfs.TierRAM {
				continue
			}
			if ok, _ := m.ledger.reserve(id, addr, a.size, job, dfs.TierRAM, true); !ok {
				m.ledger.noteReject(dfs.TierRAM)
				continue
			}
			a.tier = dfs.TierRAM
			jc := plans[job]
			if jc == nil {
				jc = &jobClimb{}
				plans[job] = jc
			}
			jc.entries = append(jc.entries, planEntry{ID: id, Size: a.size, Checksum: a.checksum, Addr: addr, Tier: dfs.TierRAM})
			jc.cmds = append(jc.cmds, dfs.MigrateCmd{
				Block:        dfs.Block{ID: id, Size: a.size},
				Job:          job,
				JobInputSize: js.inputSize,
				SubmitTime:   js.submitTime,
				Implicit:     js.implicit,
				Checksum:     a.checksum,
				Tier:         dfs.TierRAM,
			})
		}
	}
	type send struct {
		job  dfs.JobID
		cmds []dfs.MigrateCmd
	}
	var sends []send
	for _, job := range sortedJobs(plans) {
		jc := plans[job]
		js := m.jobs[job]
		if m.journal != nil {
			if err := m.journal.AppendPlan(epoch, job, js.implicit, js.inputSize, js.submitTime, jc.entries); err != nil {
				// Crash model: an unjournalable master is dead. The rung
				// stays assigned in memory; recovery re-derives it from
				// the journaled SSD pins.
				continue
			}
		}
		sends = append(sends, send{job: job, cmds: jc.cmds})
	}
	m.mu.Unlock()
	for _, s := range sends {
		m.sendMigrateBatches(epoch, s.job, map[string][]dfs.MigrateCmd{addr: s.cmds})
	}
}

// noteUnpinned releases tier-budget charges for blocks a slave reported
// unpinned at tier, journaling the release so a recovered ledger's
// occupancy matches. A no-op without a configured tier plane, so the
// default master's journal stream is unchanged.
func (m *Master) noteUnpinned(addr string, tier dfs.Tier, blocks []dfs.BlockID) {
	if m.ledger == nil || len(blocks) == 0 {
		return
	}
	for _, id := range blocks {
		m.ledger.release(id, addr, tier, false)
	}
	m.mu.Lock()
	j := m.journal
	m.mu.Unlock()
	if j != nil {
		_ = j.AppendUnpinned(addr, tier, blocks)
	}
}

func sortedJobs[V any](m map[dfs.JobID]V) []dfs.JobID {
	out := make([]dfs.JobID, 0, len(m))
	for job := range m {
		out = append(out, job)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NotifyRead handles a client's batched cache-hit notification: the
// client served these blocks for Job from its own memory, so no datanode
// observed the reads and no slave advanced its reference lists. The
// master forwards each block to the slave it assigned the migration to,
// letting implicit eviction fire exactly as if the datanode had served
// the read. Blocks the master never assigned for the job (already
// evicted, never migrated, or assigned by a previous epoch) are dropped:
// there is no reference to release.
func (m *Master) NotifyRead(job dfs.JobID, blocks []dfs.BlockID) {
	// Every notified read feeds the popularity score, whether or not the
	// block is still assigned: re-reads are the signal the
	// popularity-scored policy promotes on.
	m.pop.bump(blocks)
	m.mu.Lock()
	epoch := m.epoch.get()
	js := m.jobs[job]
	batches := make(map[string][]dfs.ReadNotifyCmd)
	for _, id := range blocks {
		if js == nil {
			break
		}
		a := js.blocks[id]
		if a == nil {
			continue
		}
		batches[a.addr] = append(batches[a.addr], dfs.ReadNotifyCmd{Block: id, Job: job})
		m.stats.ReadNotifies++
	}
	m.mu.Unlock()

	for _, addr := range sortedKeys(batches) {
		cmds := batches[addr]
		sort.Slice(cmds, func(i, j int) bool { return cmds[i].Block < cmds[j].Block })
		if err := m.link.SendReadNotify(addr, dfs.ReadNotifyBatch{Epoch: epoch, Cmds: cmds}); err != nil {
			m.mu.Lock()
			m.stats.SendErrors++
			m.mu.Unlock()
		}
	}
}

// AssignedReplica reports the replica address the master chose for a
// (job, block) migration, or "" if none.
func (m *Master) AssignedReplica(job dfs.JobID, block dfs.BlockID) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if js := m.jobs[job]; js != nil {
		if a := js.blocks[block]; a != nil {
			return a.addr
		}
	}
	return ""
}

// Restart simulates a master failure and recovery: the new master starts
// with empty state and a new epoch. Slaves purge their reference lists
// when they first see the new epoch, staying consistent with it.
// (Partitioned masters restart through their Coordinator, which bumps
// the shared epoch exactly once across all planners.)
func (m *Master) Restart() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.epoch.bump()
	m.jobs = make(map[dfs.JobID]*jobState)
	m.retries = nil
	// The epoch bump purges every slave, so nothing stays resident.
	m.ledger.reset()
}

// Epoch returns the current master epoch.
func (m *Master) Epoch() uint64 { return m.epoch.get() }

// jobIDs lists the jobs this planner currently tracks.
func (m *Master) jobIDs() []dfs.JobID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]dfs.JobID, 0, len(m.jobs))
	for job := range m.jobs {
		out = append(out, job)
	}
	return out
}

// Stats returns a snapshot of master activity.
func (m *Master) Stats() MasterStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.Epoch = m.epoch.get()
	st.ActiveJobs = len(m.jobs)
	st.PendingRetries = len(m.retries)
	if m.journal != nil {
		st.WALRecords = m.journal.Appended()
	}
	st.Tiers = m.ledger.snapshot()
	return st
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
