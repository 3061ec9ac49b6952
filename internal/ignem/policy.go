package ignem

import (
	"sync"

	"repro/internal/dfs"
)

// This file holds the tier plane's state: the climb's job-size bound
// and the tierLedger — the master-side per-tier byte-budget accountant.
// Every master has one ledger. The paper's policy is the ladder with a
// single rung: it plans every block into RAM, under an unlimited RAM
// budget unless one is configured, and never climbs. The ladder policy
// plans HDD→SSD when the cluster has a flash rung, then climbs SSD→RAM
// (planTierLocked, climb). The ladder only climbs: a fast-tier residency
// ends when its jobs evict it, never by demotion.

// climbMaxJobSize bounds the job input size that earns the ladder's
// SSD→RAM climb without a re-read (the paper's smallest-job-first
// intuition: small jobs gain the most per pinned byte).
const climbMaxJobSize = 1 << 30

// TierBudgets caps cluster-wide fast-tier residency in bytes. Zero
// means unlimited for RAM and ABSENT for SSD: a cluster without an SSD
// budget has no SSD rung, so the ladder plans RAM only.
type TierBudgets struct {
	// RAM bounds bytes planned into pinned memory across the cluster.
	// 0 = unlimited: the slaves' per-node Capacity is then the only
	// bound, as in the paper's master.
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
	// Demotions is always zero: the ladder only climbs. The field stays
	// because the repository benchmark reports it.
	Demotions int64
	// BudgetRejectsSSD / BudgetRejectsRAM count reservations refused
	// for lack of budget.
	BudgetRejectsSSD int64
	BudgetRejectsRAM int64
}

// residentKey identifies one planned residency: pins are per-slave, so
// the same block pinned on two datanodes is two ledger entries.
type residentKey struct {
	id   dfs.BlockID
	addr string
}

// ledgerEntry is one block-on-a-slave's outstanding charges. A climbing
// block transiently holds both its SSD and RAM charge: RAM is reserved
// when the second rung is planned, and the SSD charge drops when the
// slave's heartbeat confirms the flash copy was released. An entry
// lives while it holds a charge.
type ledgerEntry struct {
	size    int64
	charged [3]bool // indexed by dfs.Tier; TierHDD never charges
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
}

func newTierLedger(b TierBudgets) *tierLedger {
	l := &tierLedger{entries: make(map[residentKey]*ledgerEntry)}
	l.limit[dfs.TierSSD] = b.SSD
	l.limit[dfs.TierRAM] = b.RAM
	return l
}

// ssdEnabled reports whether the cluster has an SSD rung. The limits
// never change after newTierLedger, so no lock is needed.
func (l *tierLedger) ssdEnabled() bool { return l.limit[dfs.TierSSD] > 0 }

// reserve charges tier for a (block, addr) residency. A residency
// already charged at the tier shares that charge. ok reports whether
// the reservation holds; fresh reports whether a new charge was taken
// (so a failed caller can roll it back precisely).
func (l *tierLedger) reserve(id dfs.BlockID, addr string, size int64, tier dfs.Tier, climb bool) (ok, fresh bool) {
	if tier == dfs.TierHDD {
		return true, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := residentKey{id, addr}
	e := l.entries[k]
	if e != nil && e.charged[tier] {
		return true, false
	}
	if l.limit[tier] > 0 && l.used[tier]+size > l.limit[tier] {
		return false, false
	}
	if e == nil {
		e = &ledgerEntry{size: size}
		l.entries[k] = e
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

// noteReject counts a final budget rejection.
func (l *tierLedger) noteReject(tier dfs.Tier) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if tier == dfs.TierSSD {
		l.counters.BudgetRejectsSSD++
	} else if tier == dfs.TierRAM {
		l.counters.BudgetRejectsRAM++
	}
}

// release drops the charge a (block, addr) residency holds at tier —
// the slave reported the copy gone (unpin delta), or a plan whose
// journal append failed rolls back. Idempotent: releasing an uncharged
// tier is a no-op.
func (l *tierLedger) release(id dfs.BlockID, addr string, tier dfs.Tier) {
	if tier == dfs.TierHDD {
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
	if !e.charged[dfs.TierSSD] && !e.charged[dfs.TierRAM] {
		delete(l.entries, k)
	}
}

// reset clears all accounting (an epoch-bump restart purged every
// slave, so nothing is resident anymore). Cumulative counters survive.
func (l *tierLedger) reset() {
	l.load(nil)
}

// load replaces the ledger's residency state with the journal's
// replayed charges (WAL recovery). Limits and cumulative counters are
// kept; occupancy is recomputed from the replayed charges.
func (l *tierLedger) load(res map[residentKey]*ledgerEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.used = [3]int64{}
	l.entries = make(map[residentKey]*ledgerEntry, len(res))
	for k, r := range res {
		if !r.charged[dfs.TierSSD] && !r.charged[dfs.TierRAM] {
			continue
		}
		e := *r
		l.entries[k] = &e
		for _, t := range []dfs.Tier{dfs.TierSSD, dfs.TierRAM} {
			if e.charged[t] {
				l.used[t] += e.size
			}
		}
	}
}

// snapshot returns the counters with current occupancy filled in.
func (l *tierLedger) snapshot() TierCounters {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.counters
	c.SSDUsedBytes = l.used[dfs.TierSSD]
	c.RAMUsedBytes = l.used[dfs.TierRAM]
	return c
}
