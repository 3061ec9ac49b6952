package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/ignem"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/workloads"
)

// The tier-ladder trace: 48 SWIM jobs over 12 GiB, 2 s apart so
// concurrent jobs keep the budgets under pressure, with RAM for a
// quarter of the working set (the regime the ladder is for) and flash
// for all of it.
const (
	ladderJobs               = 48
	ladderBytes        int64 = 12 << 30
	ladderInterarrival       = 2 * time.Second
	ladderRAMBudget          = ladderBytes / 4
	ladderSSDBudget          = ladderBytes
)

// LadderResult is the HDD→SSD→RAM ladder (DESIGN §4h) against the
// paper's pin-in-RAM policy on the same trace and RAM budget.
type LadderResult struct {
	PinRAM, Ladder *SwimModeResult
}

// RunLadder runs the tier trace twice under Ignem: the paper policy,
// which pins in RAM only, and the ladder, which also gets the flash
// rung with its seeded read-latency tail.
func RunLadder(seed int64) (*LadderResult, error) {
	jobs := workloads.GenerateSwim(workloads.SwimConfig{
		Jobs: ladderJobs, TotalInputBytes: ladderBytes, MeanInterarrival: ladderInterarrival, Seed: seed,
	})
	ccfg := cluster.Config{
		Nodes:           paperNodes,
		Mode:            cluster.ModeIgnem,
		Seed:            seed,
		MigrationPolicy: "paper",
		TierBudgets:     ignem.TierBudgets{RAM: ladderRAMBudget},
	}
	pin, err := runSwimMode(ccfg, jobs)
	if err != nil {
		return nil, fmt.Errorf("pin-in-RAM: %w", err)
	}
	ccfg.MigrationPolicy = "ladder"
	ccfg.TierBudgets.SSD = ladderSSDBudget
	ccfg.SSD = storage.SSDVarSpec(seed)
	ladder, err := runSwimMode(ccfg, jobs)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	return &LadderResult{PinRAM: pin, Ladder: ladder}, nil
}

// p99 is the run's 99th-percentile map-task time in seconds.
func p99(r *SwimModeResult) float64 { return r.TaskDurations.Percentile(99) }

// Render prints both policies' tail task time and tier activity.
func (r *LadderResult) Render() string {
	t := metrics.Table{
		Caption: fmt.Sprintf("%d SWIM jobs, %s, %d nodes; RAM budget %s, SSD budget %s",
			ladderJobs, gb(ladderBytes), paperNodes, gb(ladderRAMBudget), gb(ladderSSDBudget)),
		Header: []string{"policy", "p99 task (s)", "to RAM", "to SSD", "climbs", "RAM rejects", "SSD hits", "peak SSD"},
	}
	for _, p := range []struct {
		name string
		res  *SwimModeResult
	}{{"pin-in-RAM", r.PinRAM}, {"ladder", r.Ladder}} {
		tc := p.res.Tiers
		t.AddRow(p.name, fmt.Sprintf("%.2f", p99(p.res)), fmt.Sprint(tc.PromotionsToRAM), fmt.Sprint(tc.PromotionsToSSD),
			fmt.Sprint(tc.ClimbsSSDToRAM), fmt.Sprint(tc.BudgetRejectsRAM), fmt.Sprint(p.res.Slave.SSDHits), gb(p.res.PeakSSDBytes))
	}
	return header("Tier ladder (DESIGN §4h) — HDD→SSD→RAM vs pin-in-RAM at RAM = 25%") + t.String() +
		fmt.Sprintf("p99 task time: ladder %.2fx better than pin-in-RAM\n", p99(r.PinRAM)/p99(r.Ladder))
}
