package ignem

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
	// Tiers is the tier ledger's budget accounting (occupancy,
	// promotions, climbs, rejects).
	Tiers TierCounters
}

// Master is the migration planner that runs inside the namenode. It
// decides *what* to migrate; the slaves decide *how* and *when*.
type Master struct {
	resolver Resolver
	link     SlaveLink
	rng      *rand.Rand

	mu sync.Mutex
	// The tier plane: ledger enforces the budgets (unlimited RAM and no
	// SSD rung until ConfigureTiers), and ladder selects SSD-first
	// placement with the SSD→RAM climb over the paper's pin-in-RAM.
	// Both are replaced only by ConfigureTiers.
	ledger *tierLedger
	ladder bool
	// reads counts read notifications per block, the re-read signal the
	// ladder's climb scores against. Kept only under the ladder.
	reads map[dfs.BlockID]int64
	// epoch stamps every batch. Slaves hold one epoch and purge all
	// state when it changes.
	epoch uint64
	// jobs records, per job, the placement chosen for each block (and
	// enough metadata to re-issue ladder rungs) so evictions go to the
	// replica that was migrated and climbs can rebuild their commands.
	jobs  map[dfs.JobID]*jobState
	stats MasterStats
	// journal, when attached, makes planning durable-before-send and
	// parks transport-failed batches on retries instead of dropping
	// them. Nil for an unjournaled master.
	journal *Journal
	// retries holds batches that failed transport, re-sent by the retry
	// pump until they deliver or their epoch goes stale.
	retries     []retryBatch
	pumpStopped atomic.Bool
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

// NewMaster creates a master with the given block resolver and slave
// link. The seed drives the random single-replica choice.
func NewMaster(resolver Resolver, link SlaveLink, seed int64) *Master {
	return &Master{
		resolver: resolver,
		link:     link,
		rng:      rand.New(rand.NewSource(seed)),
		epoch:    1,
		jobs:     make(map[dfs.JobID]*jobState),
		ledger:   newTierLedger(TierBudgets{}),
		reads:    make(map[dfs.BlockID]int64),
	}
}

// ConfigureTiers replaces the tier plane's policy and ledger: a named
// policy plus per-tier byte budgets. "paper" (or empty) pins every
// planned block in RAM; "ladder" plans SSD first when the flash rung
// exists and climbs SSD→RAM for small jobs and re-read blocks. Call
// before serving requests (and before Restart, so a ledger recovered
// from the journal has its limits). A new master runs the paper policy
// with an unlimited RAM budget.
func (m *Master) ConfigureTiers(policyName string, budgets TierBudgets) error {
	var ladder bool
	switch policyName {
	case "", "paper":
	case "ladder":
		ladder = true
	default:
		return fmt.Errorf("ignem: unknown migration policy %q", policyName)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ladder = ladder
	m.ledger = newTierLedger(budgets)
	return nil
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

	job, submitTime, implicit := req.Job, req.SubmitTime, req.Implicit

	// With a journal attached the plan is made durable BEFORE anything is
	// assigned or sent: a failed append returns an error with no state
	// change at all (master-crash model — if the log can't be written,
	// the master is dead and the client's Migrate fails with it).
	m.mu.Lock()
	m.stats.MigrateReqs++
	epoch := m.epoch
	js := m.jobs[job]
	batches := make(map[string][]dfs.MigrateCmd)
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
		tier := m.planTierLocked(lb.Block, addr, ssdOn, &charges)
		if tier == dfs.TierHDD {
			continue // budget-rejected on every rung; the block stays on disk
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
		if journalErr := m.journal.AppendPlan(epoch, job, implicit, totalSize, submitTime, entries); journalErr != nil {
			for _, c := range charges {
				m.ledger.release(c.id, c.addr, c.tier)
			}
			m.mu.Unlock()
			return dfs.MigrateResp{}, fmt.Errorf("ignem: journal plan for job %s: %w", job, journalErr)
		}
	}
	if js == nil {
		// Created even with no blocks: a migrate request always
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
	m.mu.Unlock()

	m.sendMigrateBatches(epoch, job, batches)
	return dfs.MigrateResp{Blocks: blocks, Bytes: bytes}, nil
}

// charge records one fresh ledger reservation taken while planning, so
// a journal failure can roll back exactly what this request charged.
type charge struct {
	id   dfs.BlockID
	addr string
	tier dfs.Tier
}

// planTierLocked places one block: RAM under the paper policy, SSD
// first under the ladder when the flash rung exists. It reserves budget
// at that tier and falls one rung at a time (RAM→SSD→reject) when the
// tier is full. TierHDD means no rung admitted the block.
func (m *Master) planTierLocked(b dfs.Block, addr string, ssdOn bool, charges *[]charge) dfs.Tier {
	tier := dfs.TierRAM
	if m.ladder && ssdOn {
		tier = dfs.TierSSD
	}
	for tier > dfs.TierHDD {
		ok, fresh := m.ledger.reserve(b.ID, addr, b.Size, tier, false)
		if fresh {
			*charges = append(*charges, charge{id: b.ID, addr: addr, tier: tier})
		}
		if ok {
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

// sendMigrateBatches delivers a job's planned batches. A transport
// failure parks the batch for retry (when journaled — an unjournaled
// master only counts the drop); a journal failure recording a delivery
// stops the loop, since a master that can't write its log is dead
// (undelivered batches stay planned-not-copied in the journal and are
// re-sent on recovery).
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
		perTier[c.Tier] = append(perTier[c.Tier], c.Block.ID)
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
// job is released on the slave it was assigned to, the job's master
// state is dropped, and the response counts the evict notifications
// sent. A job the master never saw is a no-op. With a journal attached
// the eviction intent is durable before anything is sent or dropped; a
// failed intent append leaves the job fully intact (the crash model
// again — the Evict call fails with the dead master). Parked migrate
// retries for the job are cancelled, so the retry pump can never re-pin
// a block the job already released.
func (m *Master) Evict(req dfs.EvictReq) (dfs.EvictResp, error) {
	job := req.Job
	m.mu.Lock()
	m.stats.EvictReqs++
	epoch := m.epoch
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
			return dfs.EvictResp{}, fmt.Errorf("ignem: journal evict intent for job %s: %w", job, err)
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
	m.maybeTruncate()
	return dfs.EvictResp{Blocks: blocks}, nil
}

// FlushRetries re-sends every parked batch whose epoch is still
// current, then truncates the journal if nothing remains in flight.
// Failures park again; stale epochs drop (a restart purged the slaves,
// so the batch's state is gone anyway). Deliveries are journaled like
// first-time sends. The retry pump calls it on its interval; tests call
// it directly to make retry timing explicit.
func (m *Master) FlushRetries() {
	m.mu.Lock()
	pending := m.retries
	m.retries = nil
	epoch := m.epoch
	m.mu.Unlock()
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
	m.maybeTruncate()
}

func (m *Master) jobLive(job dfs.JobID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.jobs[job]
	return ok
}

// NotePinned records heartbeat-confirmed pins at tier against the
// journal: addr now holds the listed blocks pinned and
// checksum-verified, which is the state machine's swapped/checked
// stage. Blocks the master never assigned (or assigned elsewhere, or
// at another tier) are ignored. Under the ladder, SSD pins then take
// the second rung, promoting qualifying blocks SSD→RAM. A no-op for an
// unjournaled master under the paper policy.
func (m *Master) NotePinned(addr string, tier dfs.Tier, blocks []dfs.BlockID) {
	m.mu.Lock()
	j := m.journal
	ladder := m.ladder
	if (j == nil && !ladder) || len(blocks) == 0 {
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
		for _, job := range sortedKeys(perJob) {
			ids := perJob[job]
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			// Append failures are ignored: pins re-confirm on the next
			// heartbeat, and a lost recPinned only costs recovery one
			// redundant (idempotent) re-send.
			_ = j.AppendPinned(job, addr, tier, ids)
		}
	}
	if ladder && tier == dfs.TierSSD {
		m.climb(addr, perJob)
	}
}

// climb issues the ladder's second rung: for blocks just confirmed
// pinned on addr's SSD whose job is small (climbMaxJobSize) or that
// have been re-read, reserve RAM budget (a full RAM simply leaves the
// block on flash), journal the re-plan, and send the RAM-rung migrate
// commands. The slave reads the block
// from its SSD copy and releases the flash residency once the RAM pin
// lands.
func (m *Master) climb(addr string, perJob map[dfs.JobID][]dfs.BlockID) {
	m.mu.Lock()
	epoch := m.epoch
	type jobClimb struct {
		entries []planEntry
		cmds    []dfs.MigrateCmd
	}
	plans := make(map[dfs.JobID]*jobClimb)
	for _, job := range sortedKeys(perJob) {
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
			if js.inputSize > climbMaxJobSize && m.reads[id] == 0 {
				continue // a large job's block earns RAM only once re-read
			}
			if ok, _ := m.ledger.reserve(id, addr, a.size, dfs.TierRAM, true); !ok {
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
	for _, job := range sortedKeys(plans) {
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

// NoteUnpinned releases tier-budget charges for blocks a slave reported
// unpinned at tier, journaling the release so a recovered ledger's
// occupancy matches.
func (m *Master) NoteUnpinned(addr string, tier dfs.Tier, blocks []dfs.BlockID) {
	if len(blocks) == 0 {
		return
	}
	m.mu.Lock()
	j, ledger := m.journal, m.ledger
	m.mu.Unlock()
	for _, id := range blocks {
		ledger.release(id, addr, tier)
	}
	if j != nil {
		_ = j.AppendUnpinned(addr, tier, blocks)
	}
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
	m.mu.Lock()
	if m.ladder {
		// Every notified read feeds the popularity score, whether or not
		// the block is still assigned: a re-read earns the climb.
		for _, id := range blocks {
			m.reads[id]++
		}
	}
	epoch := m.epoch
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

// Epoch returns the current master epoch.
func (m *Master) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Stats returns a snapshot of master activity.
func (m *Master) Stats() MasterStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.Epoch = m.epoch
	st.ActiveJobs = len(m.jobs)
	st.PendingRetries = len(m.retries)
	if m.journal != nil {
		st.WALRecords = m.journal.Appended()
	}
	st.Tiers = m.ledger.snapshot()
	return st
}

// sortedKeys returns m's keys in ascending order: iterating maps through
// it keeps command batches and journal records in a reproducible order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
