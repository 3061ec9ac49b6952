package ignem

import (
	"fmt"
	"testing"

	"repro/internal/dfs"
)

// ConfigureTiers accepts the two policy names (and empty, the paper
// default) and rejects every other name.
func TestConfigureTiersPolicyNames(t *testing.T) {
	cases := []struct {
		in     string
		ladder bool
		ok     bool
	}{
		{"", false, true},
		{"paper", false, true},
		{"ladder", true, true},
		{"lru", false, false},
	}
	for _, c := range cases {
		m := NewMaster(&fakeResolver{}, newFakeLink(), 1)
		err := m.ConfigureTiers(c.in, TierBudgets{})
		if (err == nil) != c.ok {
			t.Errorf("ConfigureTiers(%q) err = %v, want ok %v", c.in, err, c.ok)
			continue
		}
		if c.ok && m.ladder != c.ladder {
			t.Errorf("ConfigureTiers(%q) ladder = %v, want %v", c.in, m.ladder, c.ladder)
		}
	}
}

func TestTierLedgerReserveReleaseBudgets(t *testing.T) {
	l := newTierLedger(TierBudgets{RAM: 100, SSD: 50})
	if !l.ssdEnabled() {
		t.Fatal("ssdEnabled = false with SSD budget")
	}

	ok, fresh := l.reserve(1, "dn1", 40, dfs.TierSSD, false)
	if !ok || !fresh {
		t.Fatalf("first reserve = (%v, %v), want (true, true)", ok, fresh)
	}
	// Same residency, second job: shares the charge.
	ok, fresh = l.reserve(1, "dn1", 40, dfs.TierSSD, false)
	if !ok || fresh {
		t.Fatalf("duplicate reserve = (%v, %v), want (true, false)", ok, fresh)
	}
	// Same block on another datanode is a separate residency and busts
	// the 50-byte SSD budget without charging or recording anything.
	ok, _ = l.reserve(1, "dn2", 40, dfs.TierSSD, false)
	if ok {
		t.Fatal("over-budget SSD reserve succeeded")
	}
	if c := l.snapshot(); c.SSDUsedBytes != 40 || len(l.entries) != 1 {
		t.Errorf("after rejected reserve: ssd %d, %d entries; want 40, 1", c.SSDUsedBytes, len(l.entries))
	}
	// HDD is never charged.
	ok, fresh = l.reserve(2, "dn1", 1<<40, dfs.TierHDD, false)
	if !ok || fresh {
		t.Fatalf("HDD reserve = (%v, %v), want (true, false)", ok, fresh)
	}

	// Climb: the same residency charges RAM on top of SSD.
	ok, fresh = l.reserve(1, "dn1", 40, dfs.TierRAM, true)
	if !ok || !fresh {
		t.Fatalf("climb reserve = (%v, %v), want (true, true)", ok, fresh)
	}
	c := l.snapshot()
	if c.SSDUsedBytes != 40 || c.RAMUsedBytes != 40 {
		t.Errorf("occupancy = ssd %d ram %d, want 40/40 during climb", c.SSDUsedBytes, c.RAMUsedBytes)
	}
	if c.PromotionsToSSD != 1 || c.PromotionsToRAM != 1 || c.ClimbsSSDToRAM != 1 {
		t.Errorf("counters = %+v", c)
	}

	// The slave's unpin delta releases the flash charge; releasing again
	// is a no-op.
	l.release(1, "dn1", dfs.TierSSD)
	l.release(1, "dn1", dfs.TierSSD)
	c = l.snapshot()
	if c.SSDUsedBytes != 0 || c.RAMUsedBytes != 40 {
		t.Errorf("after SSD release: ssd %d ram %d, want 0/40", c.SSDUsedBytes, c.RAMUsedBytes)
	}
	// Releasing the last charge drops the entry.
	l.release(1, "dn1", dfs.TierRAM)
	if c = l.snapshot(); c.RAMUsedBytes != 0 || len(l.entries) != 0 {
		t.Errorf("after RAM release: ram %d, %d entries; want 0, 0", c.RAMUsedBytes, len(l.entries))
	}

	// reset clears occupancy but keeps cumulative counters.
	l.reserve(3, "dn1", 30, dfs.TierRAM, false)
	before := l.snapshot()
	l.reset()
	after := l.snapshot()
	if after.SSDUsedBytes != 0 || after.RAMUsedBytes != 0 || len(l.entries) != 0 {
		t.Errorf("reset left occupancy %d/%d", after.SSDUsedBytes, after.RAMUsedBytes)
	}
	if after.PromotionsToSSD != before.PromotionsToSSD || after.PromotionsToRAM != before.PromotionsToRAM {
		t.Errorf("reset lost counters: %+v vs %+v", after, before)
	}
}

func TestTierLedgerRejectCountersAndUnlimitedRAM(t *testing.T) {
	// RAM budget 0 = unlimited; SSD budget 0 = tier absent.
	l := newTierLedger(TierBudgets{})
	if l.ssdEnabled() {
		t.Fatal("ssdEnabled = true with zero SSD budget")
	}
	for id := dfs.BlockID(1); id <= 2; id++ {
		if ok, _ := l.reserve(id, "dn1", 1<<40, dfs.TierRAM, false); !ok {
			t.Fatal("unlimited RAM reserve failed")
		}
	}
	l.noteReject(dfs.TierSSD)
	l.noteReject(dfs.TierRAM)
	l.noteReject(dfs.TierRAM)
	l.noteReject(dfs.TierHDD) // ignored
	c := l.snapshot()
	if c.BudgetRejectsSSD != 1 || c.BudgetRejectsRAM != 2 {
		t.Errorf("rejects = ssd %d ram %d, want 1/2", c.BudgetRejectsSSD, c.BudgetRejectsRAM)
	}

}

// sentTiers collects, per block, the tier of every migrate command the
// master sent to addr, in send order.
func sentTiers(link *fakeLink, addr string) map[dfs.BlockID][]dfs.Tier {
	link.mu.Lock()
	defer link.mu.Unlock()
	out := make(map[dfs.BlockID][]dfs.Tier)
	for _, b := range link.migrates[addr] {
		for _, c := range b.Cmds {
			out[c.Block.ID] = append(out[c.Block.ID], c.Tier)
		}
	}
	return out
}

// tierCase is one row of the master's tier-placement table: a policy
// with or without an SSD rung.
type tierCase struct {
	policy string
	ssd    int64
	// first is the tier an unbudgeted block is planned at.
	first dfs.Tier
	// full is the tier the second block falls to once a one-block
	// RAM budget is taken (TierHDD = rejected, never sent).
	full dfs.Tier
	// climbs reports whether SSD residents earn the RAM rung.
	climbs bool
}

// The paper policy pins in RAM whether or not an SSD rung exists, falls
// to flash (or is rejected without one) when RAM is full, and never
// climbs.
func TestPaperPolicyIsPinInRAM(t *testing.T) {
	checkTierPlacement(t, []tierCase{
		{"paper", 1 << 40, dfs.TierRAM, dfs.TierSSD, false},
		{"paper", 0, dfs.TierRAM, dfs.TierHDD, false},
	})
}

// The ladder plans onto SSD first and climbs to RAM at the 1 GiB
// boundary; with no flash rung it behaves as the paper policy.
func TestLadderPolicyPlanAndClimb(t *testing.T) {
	checkTierPlacement(t, []tierCase{
		{"ladder", 1 << 40, dfs.TierSSD, dfs.TierSSD, true},
		// No flash rung and a full RAM: rejected, as under paper — the
		// ladder never demotes a resident to make room.
		{"ladder", 0, dfs.TierRAM, dfs.TierHDD, false},
	})
}

// checkTierPlacement drives the master through each case: the first
// tier a block is planned at, the fall from a full RAM budget, and the
// ladder's SSD→RAM climb boundary (a job input of exactly 1 GiB climbs
// on its SSD pin; one byte more stays on flash until the block has been
// re-read).
func checkTierPlacement(t *testing.T, cases []tierCase) {
	t.Helper()
	const gib = int64(1) << 30
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/ssd=%v", c.policy, c.ssd > 0), func(t *testing.T) {
			// First tier, no budget pressure, and the climb boundary.
			res := &fakeResolver{files: map[string][]dfs.LocatedBlock{
				"/exact": {located(1, gib, "dn1")},
				"/over":  {located(2, gib+1, "dn1")},
			}}
			link := newFakeLink()
			m := NewMaster(res, link, 1)
			if err := m.ConfigureTiers(c.policy, TierBudgets{SSD: c.ssd}); err != nil {
				t.Fatal(err)
			}
			for job, path := range map[dfs.JobID]string{"exact": "/exact", "over": "/over"} {
				if _, err := m.Migrate(dfs.MigrateReq{Job: job, Paths: []string{path}}); err != nil {
					t.Fatal(err)
				}
			}
			got := sentTiers(link, "dn1")
			for _, id := range []dfs.BlockID{1, 2} {
				if fmt.Sprint(got[id]) != fmt.Sprint([]dfs.Tier{c.first}) {
					t.Fatalf("block %d planned at %v, want [%v]", id, got[id], c.first)
				}
			}
			m.NotePinned("dn1", c.first, []dfs.BlockID{1, 2})
			got = sentTiers(link, "dn1")
			if climbed := len(got[1]) == 2 && got[1][1] == dfs.TierRAM; climbed != c.climbs {
				t.Fatalf("1 GiB job after its pin: commands %v, climbed = %v, want %v", got[1], climbed, c.climbs)
			}
			if len(got[2]) != 1 {
				t.Fatalf("1 GiB + 1 job climbed without a re-read: commands %v", got[2])
			}
			m.NotifyRead("over", []dfs.BlockID{2})
			m.NotePinned("dn1", c.first, []dfs.BlockID{2})
			got = sentTiers(link, "dn1")
			if climbed := len(got[2]) == 2 && got[2][1] == dfs.TierRAM; climbed != c.climbs {
				t.Fatalf("1 GiB + 1 job after a re-read: commands %v, climbed = %v, want %v", got[2], climbed, c.climbs)
			}

			// The fall from a full RAM budget: one block fits.
			res = &fakeResolver{files: map[string][]dfs.LocatedBlock{
				"/f": {located(1, 10, "dn1"), located(2, 10, "dn1")},
			}}
			link = newFakeLink()
			m = NewMaster(res, link, 1)
			if err := m.ConfigureTiers(c.policy, TierBudgets{RAM: 10, SSD: c.ssd}); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Migrate(dfs.MigrateReq{Job: "j", Paths: []string{"/f"}}); err != nil {
				t.Fatal(err)
			}
			got = sentTiers(link, "dn1")
			if fmt.Sprint(got[1]) != fmt.Sprint([]dfs.Tier{c.first}) {
				t.Fatalf("block 1 planned at %v, want [%v]", got[1], c.first)
			}
			if c.full == dfs.TierHDD {
				if len(got[2]) != 0 {
					t.Fatalf("block 2 sent at %v, want rejected", got[2])
				}
				if r := m.Stats().Tiers.BudgetRejectsRAM; r != 1 {
					t.Fatalf("BudgetRejectsRAM = %d, want 1", r)
				}
			} else if fmt.Sprint(got[2]) != fmt.Sprint([]dfs.Tier{c.full}) {
				t.Fatalf("block 2 planned at %v, want [%v]", got[2], c.full)
			}
			if st := m.Stats().Tiers; st.Demotions != 0 {
				t.Fatalf("Demotions = %d, want 0", st.Demotions)
			}
		})
	}
}
