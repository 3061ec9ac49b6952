package ignem

import (
	"sort"
	"sync"

	"repro/internal/dfs"
)

// This file is the migration plane's tier-ladder brain: the Policy
// interface (which tier a block should be migrated to, when to climb a
// rung, and which residents to demote under budget pressure), its three
// implementations, the shared popularity tracker fed by the
// read-notification stream, and the tierLedger — the master-side
// per-tier byte-budget accountant.
//
// None of this exists for a default-configured master: a master
// without ConfigureTiers runs with a nil policy and a nil ledger, and
// every planning code path that consults them short-circuits to the
// paper's pin-in-RAM behavior, bit for bit.

// PlanContext carries what a policy may consider when placing a block.
type PlanContext struct {
	Job   dfs.JobID
	Block dfs.Block
	// JobInputSize is the job's whole input size (the smallest-job-first
	// key), so policies can favor the jobs the paper says benefit most.
	JobInputSize int64
	// Popularity is the block's cumulative read-notification count.
	Popularity int64
	// SSDEnabled reports whether the cluster has an SSD rung at all (a
	// configured SSD budget). Policies must not target TierSSD when
	// false.
	SSDEnabled bool
}

// Resident describes one fast-tier resident for victim selection.
type Resident struct {
	ID   dfs.BlockID
	Addr string
	Size int64
	// Refs is how many live jobs still reference the planned residency.
	Refs int
	// Seq orders residents by plan time (smaller = older).
	Seq uint64
	// Pop is the block's read-notification count.
	Pop int64
}

// Policy decides tier placement for the migration ladder. Implementations
// must be safe for concurrent use; they are consulted under the planner
// lock and must not call back into the master.
type Policy interface {
	// Name labels the policy in stats and benchmark output.
	Name() string
	// PlanTier picks the tier a freshly-planned block migrates to.
	PlanTier(ctx PlanContext) dfs.Tier
	// ClimbTier is consulted when a pin at tier cur is confirmed by a
	// slave heartbeat: returning a higher tier issues the next rung of
	// the ladder; returning cur (or lower) stays put.
	ClimbTier(ctx PlanContext, cur dfs.Tier) dfs.Tier
	// Victims picks residents to demote from tier to free at least need
	// bytes. Returning fewer bytes than need (or nil) makes the planner
	// reject the reservation instead.
	Victims(tier dfs.Tier, need int64, residents []Resident) []Resident
}

// PolicyByName maps a config string to a policy. Empty and "paper"
// select the default smallest-job-first-to-RAM policy.
func PolicyByName(name string) (Policy, bool) {
	switch name {
	case "", "paper":
		return PaperPolicy{}, true
	case "ladder":
		return LadderPolicy{}, true
	case "popularity":
		return PopularityPolicy{}, true
	}
	return nil, false
}

// PaperPolicy is the paper's behavior: every planned block heads
// straight for RAM, no climbing, no demotion. With no tier budgets
// configured this is bit-identical to the pre-ladder master.
type PaperPolicy struct{}

// Name implements Policy.
func (PaperPolicy) Name() string { return "paper" }

// PlanTier implements Policy: always RAM.
func (PaperPolicy) PlanTier(PlanContext) dfs.Tier { return dfs.TierRAM }

// ClimbTier implements Policy: never climbs.
func (PaperPolicy) ClimbTier(_ PlanContext, cur dfs.Tier) dfs.Tier { return cur }

// Victims implements Policy: never demotes.
func (PaperPolicy) Victims(dfs.Tier, int64, []Resident) []Resident { return nil }

// LadderPolicy is the cost-benefit ladder: promote HDD→SSD broadly
// (flash is large and an order of magnitude faster than a contended
// disk), then SSD→RAM selectively — only the blocks whose jobs are
// small enough to finish inside the RAM budget's turnover, or that have
// proven re-read popularity. Cold SSD residents demote back to HDD when
// the flash budget is needed for fresher work.
type LadderPolicy struct {
	// ClimbMaxJobSize bounds the job input size that still earns the
	// SSD→RAM climb (the paper's smallest-job-first intuition: small
	// jobs gain the most per pinned byte). Default 1 GiB.
	ClimbMaxJobSize int64
}

// Name implements Policy.
func (LadderPolicy) Name() string { return "ladder" }

// PlanTier implements Policy: SSD first when the rung exists.
func (p LadderPolicy) PlanTier(ctx PlanContext) dfs.Tier {
	if ctx.SSDEnabled {
		return dfs.TierSSD
	}
	return dfs.TierRAM
}

// ClimbTier implements Policy: SSD→RAM for small or popular inputs.
func (p LadderPolicy) ClimbTier(ctx PlanContext, cur dfs.Tier) dfs.Tier {
	if cur != dfs.TierSSD {
		return cur
	}
	limit := p.ClimbMaxJobSize
	if limit <= 0 {
		limit = 1 << 30
	}
	if ctx.JobInputSize <= limit || ctx.Popularity > 0 {
		return dfs.TierRAM
	}
	return cur
}

// Victims implements Policy: demote the coldest residents first —
// lowest popularity, then fewest referencing jobs, then oldest plan.
func (LadderPolicy) Victims(_ dfs.Tier, need int64, residents []Resident) []Resident {
	return coldestVictims(need, residents)
}

// PopularityPolicy scores blocks by the read-notification stream:
// blocks observed hot (re-read across cache hits) go straight to RAM,
// warm blocks take the SSD rung, unknown blocks take SSD when it exists
// (cheap to be wrong there) and RAM otherwise.
type PopularityPolicy struct {
	// HotThreshold is the popularity at which a block plans straight to
	// RAM. Default 2.
	HotThreshold int64
}

// Name implements Policy.
func (PopularityPolicy) Name() string { return "popularity" }

func (p PopularityPolicy) hot() int64 {
	if p.HotThreshold > 0 {
		return p.HotThreshold
	}
	return 2
}

// PlanTier implements Policy.
func (p PopularityPolicy) PlanTier(ctx PlanContext) dfs.Tier {
	if ctx.Popularity >= p.hot() || !ctx.SSDEnabled {
		return dfs.TierRAM
	}
	return dfs.TierSSD
}

// ClimbTier implements Policy: any observed popularity earns the climb.
func (p PopularityPolicy) ClimbTier(ctx PlanContext, cur dfs.Tier) dfs.Tier {
	if cur == dfs.TierSSD && ctx.Popularity > 0 {
		return dfs.TierRAM
	}
	return cur
}

// Victims implements Policy: demote the least popular residents.
func (PopularityPolicy) Victims(_ dfs.Tier, need int64, residents []Resident) []Resident {
	return coldestVictims(need, residents)
}

// coldestVictims sorts residents coldest-first (popularity, then live
// references, then age) and takes the prefix covering need bytes. It
// returns nil when even the whole set cannot cover need.
func coldestVictims(need int64, residents []Resident) []Resident {
	if need <= 0 || len(residents) == 0 {
		return nil
	}
	sorted := append([]Resident(nil), residents...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Pop != b.Pop {
			return a.Pop < b.Pop
		}
		if a.Refs != b.Refs {
			return a.Refs < b.Refs
		}
		return a.Seq < b.Seq
	})
	var out []Resident
	var freed int64
	for _, r := range sorted {
		if freed >= need {
			break
		}
		out = append(out, r)
		freed += r.Size
	}
	if freed < need {
		return nil
	}
	return out
}

// ---- popularity tracker ----

// popTracker accumulates per-block read-notification counts, the signal
// PopularityPolicy (and the ladder's climb) score against.
type popTracker struct {
	mu sync.Mutex
	m  map[dfs.BlockID]int64
}

func newPopTracker() *popTracker { return &popTracker{m: make(map[dfs.BlockID]int64)} }

func (p *popTracker) bump(ids []dfs.BlockID) {
	if p == nil {
		return
	}
	p.mu.Lock()
	for _, id := range ids {
		p.m[id]++
	}
	p.mu.Unlock()
}

func (p *popTracker) get(id dfs.BlockID) int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m[id]
}

// ---- tier budget ledger ----

// TierBudgets caps cluster-wide fast-tier residency in bytes. Zero
// means unlimited for RAM and ABSENT for SSD: a cluster without an SSD
// budget has no SSD rung, so policies fall back to RAM-only planning.
type TierBudgets struct {
	// RAM bounds bytes planned into pinned memory across the cluster.
	// 0 = unlimited (the historical master never budgeted RAM; the
	// slaves' per-node Capacity was the only bound).
	RAM int64
	// SSD bounds bytes planned onto the flash rung. 0 = no SSD tier.
	SSD int64
}

// TierCounters is a snapshot of the ledger's accounting, surfaced in
// MasterStats and as namenode metrics.
type TierCounters struct {
	// SSDUsedBytes / RAMUsedBytes are currently-reserved residency.
	SSDUsedBytes int64
	RAMUsedBytes int64
	// PromotionsToSSD / PromotionsToRAM count upward placements by
	// destination tier (HDD→SSD, and HDD→RAM or SSD→RAM respectively).
	PromotionsToSSD int64
	PromotionsToRAM int64
	// ClimbsSSDToRAM counts second-rung promotions specifically.
	ClimbsSSDToRAM int64
	// Demotions counts downward migrations (fast-tier residents
	// released to free budget).
	Demotions int64
	// BudgetRejectsSSD / BudgetRejectsRAM count reservations refused
	// for lack of budget (after any victim demotion the policy offered).
	BudgetRejectsSSD int64
	BudgetRejectsRAM int64
}

// residentKey identifies one planned residency: pins are per-slave, so
// the same block pinned on two datanodes is two ledger entries.
type residentKey struct {
	id   dfs.BlockID
	addr string
}

// ledgerEntry is one block-on-a-slave's outstanding reservations. A
// climbing block transiently holds both its SSD and RAM charge: RAM is
// reserved when the second rung is planned, and the SSD charge drops
// when the slave's heartbeat confirms the flash copy was released.
type ledgerEntry struct {
	size    int64
	charged [3]bool // indexed by dfs.Tier; TierHDD never charges
	refs    map[dfs.JobID]struct{}
	seq     uint64
}

func (e *ledgerEntry) tier() dfs.Tier {
	if e.charged[dfs.TierRAM] {
		return dfs.TierRAM
	}
	if e.charged[dfs.TierSSD] {
		return dfs.TierSSD
	}
	return dfs.TierHDD
}

// tierLedger enforces the cluster-wide tier budgets. It holds its own
// lock; lock order is Master.mu → tierLedger.mu, and the ledger never calls
// out.
type tierLedger struct {
	mu       sync.Mutex
	limit    [3]int64 // 0 = unlimited (RAM) / absent (SSD)
	used     [3]int64
	counters TierCounters
	entries  map[residentKey]*ledgerEntry
	seq      uint64
}

func newTierLedger(b TierBudgets) *tierLedger {
	l := &tierLedger{entries: make(map[residentKey]*ledgerEntry)}
	l.limit[dfs.TierSSD] = b.SSD
	l.limit[dfs.TierRAM] = b.RAM
	return l
}

// ssdEnabled reports whether the cluster has an SSD rung.
func (l *tierLedger) ssdEnabled() bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.limit[dfs.TierSSD] > 0
}

// reserve charges tier for a (block, addr) residency on behalf of job.
// An existing charge at the tier only adds the job reference. ok
// reports whether the reservation holds; fresh reports whether a new
// charge was taken (so a failed caller can roll it back precisely).
func (l *tierLedger) reserve(id dfs.BlockID, addr string, size int64, job dfs.JobID, tier dfs.Tier, climb bool) (ok, fresh bool) {
	if l == nil || tier == dfs.TierHDD {
		return true, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := residentKey{id, addr}
	e := l.entries[k]
	if e == nil {
		l.seq++
		e = &ledgerEntry{size: size, refs: make(map[dfs.JobID]struct{}), seq: l.seq}
		l.entries[k] = e
	}
	e.refs[job] = struct{}{}
	if e.charged[tier] {
		return true, false
	}
	if l.limit[tier] > 0 && l.used[tier]+size > l.limit[tier] {
		l.gcLocked(k, e)
		return false, false
	}
	e.charged[tier] = true
	l.used[tier] += size
	switch tier {
	case dfs.TierSSD:
		l.counters.PromotionsToSSD++
	case dfs.TierRAM:
		l.counters.PromotionsToRAM++
		if climb {
			l.counters.ClimbsSSDToRAM++
		}
	}
	return true, true
}

// shortfall reports how many bytes over budget a size-byte reservation
// at tier would land (0 = it fits).
func (l *tierLedger) shortfall(tier dfs.Tier, size int64) int64 {
	if l == nil || tier == dfs.TierHDD {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.limit[tier] <= 0 {
		return 0
	}
	over := l.used[tier] + size - l.limit[tier]
	if over < 0 {
		return 0
	}
	return over
}

// noteReject counts a final budget rejection (after victim demotion, if
// any, still couldn't make room).
func (l *tierLedger) noteReject(tier dfs.Tier) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if tier == dfs.TierSSD {
		l.counters.BudgetRejectsSSD++
	} else if tier == dfs.TierRAM {
		l.counters.BudgetRejectsRAM++
	}
}

// release drops the charge a (block, addr) residency holds at tier —
// the slave reported the copy gone (unpin delta) or a demotion was
// issued. Idempotent: releasing an uncharged tier is a no-op.
func (l *tierLedger) release(id dfs.BlockID, addr string, tier dfs.Tier, demotion bool) {
	if l == nil || tier == dfs.TierHDD {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := residentKey{id, addr}
	e := l.entries[k]
	if e == nil || !e.charged[tier] {
		return
	}
	e.charged[tier] = false
	l.used[tier] -= e.size
	if demotion {
		l.counters.Demotions++
	}
	l.gcLocked(k, e)
}

// dropRef removes job's reference from a residency; the entry keeps its
// charges (the bytes stay resident on the slave until its unpin delta
// arrives) but becomes a colder demotion victim.
func (l *tierLedger) dropRef(id dfs.BlockID, addr string, job dfs.JobID) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := residentKey{id, addr}
	if e := l.entries[k]; e != nil {
		delete(e.refs, job)
		l.gcLocked(k, e)
	}
}

// gcLocked removes an entry with no outstanding charges and no refs.
func (l *tierLedger) gcLocked(k residentKey, e *ledgerEntry) {
	if !e.charged[dfs.TierSSD] && !e.charged[dfs.TierRAM] && len(e.refs) == 0 {
		delete(l.entries, k)
	}
}

// residents snapshots the entries charged at tier, for victim selection.
func (l *tierLedger) residents(tier dfs.Tier, pop *popTracker) []Resident {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]Resident, 0, len(l.entries))
	for k, e := range l.entries {
		if !e.charged[tier] {
			continue
		}
		out = append(out, Resident{ID: k.id, Addr: k.addr, Size: e.size, Refs: len(e.refs), Seq: e.seq})
	}
	l.mu.Unlock()
	if pop != nil {
		for i := range out {
			out[i].Pop = pop.get(out[i].ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// reset clears all accounting (an epoch-bump restart purged every
// slave, so nothing is resident anymore). Cumulative counters survive.
func (l *tierLedger) reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.used = [3]int64{}
	l.entries = make(map[residentKey]*ledgerEntry)
}

// load replaces the ledger's residency state with the journal's
// replayed view (WAL recovery). Limits and cumulative counters are kept;
// occupancy is recomputed from the replayed charges.
func (l *tierLedger) load(res map[residentKey]*recResidency) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.used = [3]int64{}
	l.entries = make(map[residentKey]*ledgerEntry)
	for k, r := range res {
		if !r.charged[dfs.TierSSD] && !r.charged[dfs.TierRAM] && len(r.refs) == 0 {
			continue
		}
		e := &ledgerEntry{size: r.size, charged: r.charged, refs: make(map[dfs.JobID]struct{}, len(r.refs)), seq: r.seq}
		for job := range r.refs {
			e.refs[job] = struct{}{}
		}
		l.entries[k] = e
		for _, t := range []dfs.Tier{dfs.TierSSD, dfs.TierRAM} {
			if e.charged[t] {
				l.used[t] += e.size
			}
		}
		if r.seq > l.seq {
			l.seq = r.seq
		}
	}
}

// snapshot returns the counters with current occupancy filled in.
func (l *tierLedger) snapshot() TierCounters {
	if l == nil {
		return TierCounters{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.counters
	c.SSDUsedBytes = l.used[dfs.TierSSD]
	c.RAMUsedBytes = l.used[dfs.TierRAM]
	return c
}
