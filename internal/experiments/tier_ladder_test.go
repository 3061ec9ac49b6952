package experiments

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/ignem"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/workloads"
)

// Tier-ladder geometry: a 16-job, 3 GiB SWIM trace on 4 nodes arriving
// 2 s apart, so concurrent jobs keep the budgets under pressure, with
// RAM for a quarter of the working set — the regime the ladder is for —
// and flash for all of it.
const (
	tierJobs               = 16
	tierBytes        int64 = 3 << 30
	tierNodes              = 4
	tierSeed               = 11
	tierInterarrival       = 2 * time.Second
	tierRAMBudget          = tierBytes / 4
	tierSSDBudget          = tierBytes
	tierSampleStep         = 2 * time.Second
)

// tierRun is what one policy's run of the tier trace measured.
type tierRun struct {
	tasks      metrics.Series // map-task run times, seconds
	tiers      ignem.TierCounters
	ssdHits    int64
	maxSSDUsed int64 // highest cluster-wide flash occupancy sampled
}

// runTierPolicy runs the tier trace under one migration policy. The
// ladder gets the flash rung, with its seeded read-latency tail; the
// paper policy pins in RAM only.
func runTierPolicy(t *testing.T, policy string) *tierRun {
	t.Helper()
	jobs := workloads.GenerateSwim(workloads.SwimConfig{
		Jobs: tierJobs, TotalInputBytes: tierBytes, MeanInterarrival: tierInterarrival, Seed: tierSeed,
	})
	cfg := cluster.Config{
		Nodes:           tierNodes,
		Mode:            cluster.ModeIgnem,
		Seed:            tierSeed,
		MigrationPolicy: policy,
		TierBudgets:     ignem.TierBudgets{RAM: tierRAMBudget},
	}
	if policy == "ladder" {
		cfg.TierBudgets.SSD = tierSSDBudget
		cfg.SSD = storage.SSDVarSpec(tierSeed)
	}
	res := &tierRun{}
	err := runOnCluster(cfg, func(v *simclock.Virtual, c *cluster.Cluster) error {
		cl, err := c.Client()
		if err != nil {
			return err
		}
		defer cl.Close()
		for _, j := range jobs {
			if err := cl.WriteSyntheticFile("/tier/"+j.Name, j.InputBytes, 0, dfs.DefaultReplication); err != nil {
				return fmt.Errorf("set-up %s: %w", j.Name, err)
			}
		}

		stopSampler := simclock.NewChan[struct{}](v)
		samplerDone := simclock.NewChan[struct{}](v)
		v.Go(func() {
			defer samplerDone.Send(struct{}{})
			for {
				if _, _, timedOut := stopSampler.RecvTimeout(tierSampleStep); !timedOut {
					return
				}
				var used int64
				for _, b := range c.SSDBytesPerNode() {
					used += b
				}
				if used > res.maxSSDUsed {
					res.maxSSDUsed = used
				}
			}
		})

		var mu sync.Mutex
		var firstErr error
		wg := simclock.NewWaitGroup(v)
		for _, j := range jobs {
			j := j
			wg.Go(func() {
				v.Sleep(j.Arrival)
				r, err := c.Engine.Run(mapreduce.Config{
					ID:            dfs.JobID(j.Name),
					InputPaths:    []string{"/tier/" + j.Name},
					MapRateMBps:   800,
					ShuffleBytes:  j.ShuffleBytes,
					OutputBytes:   j.OutputBytes,
					UseIgnem:      true,
					ImplicitEvict: true,
				})
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("job %s: %w", j.Name, err)
					}
					return
				}
				for _, tr := range r.MapResults {
					res.tasks.AddDuration(tr.RunTime)
				}
			})
		}
		wg.Wait()
		stopSampler.Send(struct{}{})
		samplerDone.Recv()
		res.tiers = c.NameNode.Stats().Tiers
		res.ssdHits = c.SlaveStats().SSDHits
		return firstErr
	})
	if err != nil {
		t.Fatalf("%s: %v", policy, err)
	}
	return res
}

// TestLadderBeatsPinRAMAtTightRAMBudget pins what the HDD→SSD→RAM ladder
// is for: when RAM holds a quarter of the working set, the paper policy
// leaves the rest on contended disk while the ladder parks it on flash,
// and the tail of the task-time distribution shows it. The bar is p99
// at least 1.2x better than pin-in-RAM; this geometry measures about 8x,
// and both times are virtual, so neither the host nor the order in which
// same-instant events happen to run can flip the verdict.
func TestLadderBeatsPinRAMAtTightRAMBudget(t *testing.T) {
	const bar = 1.2
	pin := runTierPolicy(t, "paper")
	ladder := runTierPolicy(t, "ladder")

	pinP99, ladderP99 := pin.tasks.Percentile(99), ladder.tasks.Percentile(99)
	if ladderP99 <= 0 || pinP99/ladderP99 < bar {
		t.Errorf("ladder p99 task time %.3fs vs pin-RAM %.3fs: %.2fx, want at least %.1fx",
			ladderP99, pinP99, pinP99/ladderP99, bar)
	}
	t.Logf("p99 task time: pin-RAM %.3fs, ladder %.3fs (%.2fx)", pinP99, ladderP99, pinP99/ladderP99)

	// The ratio means something only if the baseline ran out of RAM and
	// the ladder used both of its rungs.
	if pin.tiers.BudgetRejectsRAM == 0 {
		t.Error("pin-RAM run never hit the RAM budget: nothing was compared")
	}
	if ladder.tiers.PromotionsToSSD == 0 {
		t.Error("ladder promoted nothing to SSD")
	}
	if ladder.tiers.ClimbsSSDToRAM == 0 {
		t.Error("ladder climbed nothing from SSD to RAM")
	}
	if ladder.ssdHits == 0 {
		t.Error("ladder served no read from SSD")
	}
	if ladder.maxSSDUsed == 0 {
		t.Error("ladder never held a byte on SSD")
	}
	if ladder.maxSSDUsed > tierSSDBudget {
		t.Errorf("ladder held %d bytes on SSD, budget %d", ladder.maxSSDUsed, tierSSDBudget)
	}
}
