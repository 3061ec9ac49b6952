package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/experiments"
	"repro/internal/ignem"
	"repro/internal/mapreduce"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/workloads"
)

const (
	// paper_sim's inputs are fixed: the traces and cluster seeds the
	// committed figures were made with (`ignem-bench swim` defaults to
	// seed 1, BENCH_tier.json used seed 11). Drawn from --seed, a SWIM
	// trace changes how much work a repetition is (peak memory differed
	// 2.6x between seeds) and a tier cluster's slow-read draws move its
	// p99 by 6 %, so no modeled value could be held to 1 % or against
	// the figures. --seed is recorded and otherwise unused here.
	paperSeed = 1
	tierSeed  = 11

	tierInterarrival = 2 * time.Second
	tierRAMFraction  = 0.25

	simStallTimeout = 3 * time.Minute
)

// tierResult is one tier-ladder simulation.
type tierResult struct {
	hostSec, bringupSec, preloadSec float64
	makespanSec                     float64
	tasks                           []float64 // virtual seconds per map task
	jobsDone                        int
	pinnedAtEnd                     int64
	hddBusyFrac                     float64
	slowReads                       int64
	tiers                           ignem.TierCounters
}

func tierTrace() []workloads.Job {
	return workloads.GenerateSwim(workloads.SwimConfig{
		Jobs: g.tierJobs, TotalInputBytes: g.tierBytes, MeanInterarrival: tierInterarrival, Seed: tierSeed,
	})
}

// runTier simulates the tier workload under one migration policy.
// ladder adds the flash rung (with its seeded read-latency tail); the
// paper policy pins in RAM only. wrap, when set, is the cluster's
// network seam.
func runTier(jobs []workloads.Job, seed int64, policy string, wrap func(string, transport.Network) transport.Network) (*tierResult, error) {
	cfg := cluster.Config{
		Nodes:           g.simNodes,
		Mode:            cluster.ModeIgnem,
		Seed:            seed,
		MigrationPolicy: policy,
		TierBudgets:     ignem.TierBudgets{RAM: int64(float64(g.tierBytes) * tierRAMFraction)},
		WrapNet:         wrap,
	}
	if policy == "ladder" {
		cfg.TierBudgets.SSD = g.tierBytes
		cfg.SSD = storage.SSDVarSpec(seed)
	}
	res := &tierResult{}
	var inner error
	t0 := time.Now()
	err := cluster.RunVirtual(simStallTimeout, func(v *simclock.Virtual) {
		c, err := cluster.Start(v, cfg)
		if err != nil {
			inner = err
			return
		}
		defer c.Close()
		res.bringupSec = time.Since(t0).Seconds()
		cl, err := c.Client()
		if err != nil {
			inner = err
			return
		}
		defer cl.Close()
		for _, j := range jobs {
			if err := cl.WriteSyntheticFile("/tier/"+j.Name, j.InputBytes, 0, dfs.DefaultReplication); err != nil {
				inner = fmt.Errorf("set-up %s: %w", j.Name, err)
				return
			}
		}
		res.preloadSec = time.Since(t0).Seconds() - res.bringupSec

		start := v.Now()
		var mu sync.Mutex
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
					if inner == nil {
						inner = fmt.Errorf("job %s: %w", j.Name, err)
					}
					return
				}
				res.jobsDone++
				for _, tr := range r.MapResults {
					res.tasks = append(res.tasks, tr.RunTime.Seconds())
				}
			})
		}
		wg.Wait()
		makespan := v.Now().Sub(start)
		res.makespanSec = makespan.Seconds()
		res.pinnedAtEnd = c.TotalPinnedBytes()
		res.hddBusyFrac = c.MeanDiskBusy().Seconds() / makespan.Seconds()
		res.tiers = c.NameNode.Stats().Tiers
		for _, dn := range c.DataNodes {
			if d := dn.SSDDevice(); d != nil {
				res.slowReads += d.Stats().SlowReads
			}
		}
	})
	res.hostSec = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	if inner != nil {
		return nil, inner
	}
	sort.Float64s(res.tasks)
	return res, nil
}

// simRep is one repetition of paper_sim: the paper-scale SWIM run under
// HDFS, Ignem and Inputs-in-RAM, then the ladder and its pin-in-RAM
// twin.
type simRep struct {
	hostSec        float64
	swim           *experiments.SwimResult
	ladder, pinRAM *tierResult
}

func runSimRep(tier []workloads.Job) (*simRep, error) {
	t0 := time.Now()
	swim, err := experiments.RunSwim(experiments.SwimConfig{
		Jobs: g.swimJobs, TotalBytes: g.swimBytes, Nodes: g.simNodes, Seed: paperSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("swim: %w", err)
	}
	ladder, err := runTier(tier, tierSeed, "ladder", nil)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	pinRAM, err := runTier(tier, tierSeed, "paper", nil)
	if err != nil {
		return nil, fmt.Errorf("pin-ram: %w", err)
	}
	return &simRep{hostSec: time.Since(t0).Seconds(), swim: swim, ladder: ladder, pinRAM: pinRAM}, nil
}

// simValues are the modeled results of a repetition: functions of the
// model and its fixed inputs only.
func (r *simRep) simValues() map[string]float64 {
	modes := r.swim.Modes
	return map[string]float64{
		"experiments.sim_job_mean_s_hdfs":     modes[cluster.ModeHDFS].JobDurations.Mean(),
		"experiments.sim_job_mean_s_ignem":    modes[cluster.ModeIgnem].JobDurations.Mean(),
		"experiments.sim_job_mean_s_ram":      modes[cluster.ModeInputsInRAM].JobDurations.Mean(),
		"experiments.sim_mem_read_frac_ignem": modes[cluster.ModeIgnem].MemoryFromReads,
		"experiments.sim_task_p99_s_ladder":   quantile(r.ladder.tasks, 0.99),
		"experiments.sim_task_p99_s_pinram":   quantile(r.pinRAM.tasks, 0.99),
		"mapreduce.sim_task_mean_s_hdfs":      modes[cluster.ModeHDFS].TaskDurations.Mean(),
		"mapreduce.sim_task_mean_s_ignem":     modes[cluster.ModeIgnem].TaskDurations.Mean(),
		"storage.sim_hdd_busy_frac":           r.ladder.hddBusyFrac,
		"storage.sim_ssd_slow_reads":          float64(r.ladder.slowReads),
		"ignem.sim_migrated_blocks":           float64(modes[cluster.ModeIgnem].Slave.MigratedBlocks),
		"ignem.sim_discard_ratio":             discardRatio(modes[cluster.ModeIgnem].Slave),
		"ignem.sim_peak_pinned_mib_per_node":  modes[cluster.ModeIgnem].MemoryPerServer.Max() / (1 << 20),
		"ignem.sim_promotions_ram":            float64(r.ladder.tiers.PromotionsToRAM),
		"ignem.sim_promotions_ssd":            float64(r.ladder.tiers.PromotionsToSSD),
		"ignem.sim_climbs":                    float64(r.ladder.tiers.ClimbsSSDToRAM),
		"ignem.sim_demotions":                 float64(r.ladder.tiers.Demotions),
		"ignem.sim_budget_rejects_ram":        float64(r.ladder.tiers.BudgetRejectsRAM),
	}
}

// discardRatio is the share of migration attempts that were wasted: the
// job read the block from disk before its migration was served.
func discardRatio(s ignem.SlaveStats) float64 {
	attempts := s.MigratedBlocks + s.DiscardedMissed
	if attempts == 0 {
		return 0
	}
	return float64(s.DiscardedMissed) / float64(attempts)
}

// tasks counts the map tasks a repetition simulated (the FIFO ablation
// RunSwim also runs does not report its tasks, and is left out).
func (r *simRep) tasks() int {
	n := len(r.ladder.tasks) + len(r.pinRAM.tasks)
	for _, m := range r.swim.Modes {
		n += m.TaskDurations.Len()
	}
	return n
}

// verify counts the repetition's jobs and the ones that went wrong:
// jobs that did not complete, and pinned bytes left after the last
// evict.
func (r *simRep) verify(rec *WorkloadRecord) {
	rec.Attempted += int64(4*g.swimJobs + 2*g.tierJobs)
	for mode, m := range r.swim.Modes {
		if n := m.JobDurations.Len(); n != g.swimJobs {
			rec.Failed += int64(g.swimJobs - n)
			rec.Errors = append(rec.Errors, fmt.Sprintf("swim %v: %d of %d jobs completed", mode, n, g.swimJobs))
		}
		if m.Slave.PinnedBytes != 0 {
			rec.fail(fmt.Errorf("swim %v: %d bytes still pinned after the last job", mode, m.Slave.PinnedBytes))
		}
	}
	if n := r.swim.FIFOJobDurations.Len(); n != g.swimJobs {
		rec.Failed += int64(g.swimJobs - n)
		rec.Errors = append(rec.Errors, fmt.Sprintf("swim FIFO: %d of %d jobs completed", n, g.swimJobs))
	}
	for name, t := range map[string]*tierResult{"ladder": r.ladder, "pin-ram": r.pinRAM} {
		if t.jobsDone != g.tierJobs {
			rec.Failed += int64(g.tierJobs - t.jobsDone)
			rec.Errors = append(rec.Errors, fmt.Sprintf("%s: %d of %d jobs completed", name, t.jobsDone, g.tierJobs))
		}
		if t.pinnedAtEnd != 0 {
			rec.fail(fmt.Errorf("%s: %d bytes still pinned after the last evict", name, t.pinnedAtEnd))
		}
	}
}

// simSetup generates the tier trace and simulates it once under each
// policy, which brings the heap to its working size.
func simSetup() ([]workloads.Job, error) {
	tier := tierTrace()
	for _, policy := range []string{"paper", "ladder"} {
		if _, err := runTier(tier, tierSeed, policy, nil); err != nil {
			return nil, err
		}
	}
	return tier, nil
}

// sameSim reports whether two repetitions modeled the same thing: a
// simulator speed-up must leave every sim value alone. Modeled times and
// fractions must agree within 1 %. The ignem counters get 5 %: which of
// two goroutines due at the same virtual instant runs first is not
// ordered (ROADMAP item 3), and a handful of migrations per run lose or
// win their race with the read they were meant to serve.
func sameSim(a, b map[string]float64) (string, bool) {
	for name, va := range a {
		vb := b[name]
		tol := 0.01
		if strings.HasPrefix(name, "ignem.") {
			tol = 0.05
		}
		if math.Abs(va-vb) > tol*math.Max(math.Abs(va), math.Abs(vb)) {
			return fmt.Sprintf("%s: %g in one repetition, %g in another", name, va, vb), false
		}
	}
	return "", true
}

// runSim measures paper_sim: whole repetitions until the time is up.
func runSim(e *env, seconds float64, rec *WorkloadRecord) error {
	rec.ClockScale = 0 // virtual
	rec.Workers = 1
	var setups []float64
	var tier []workloads.Job
	for i := 0; i < g.simSetupRepeats; i++ {
		t0 := time.Now()
		var err error
		if tier, err = simSetup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	releaseMemory()

	var reps []*simRep
	before := procNow()
	start := time.Now()
	for len(reps) == 0 || time.Since(start).Seconds() < seconds {
		r, err := runSimRep(tier)
		if err != nil {
			return err
		}
		r.verify(rec)
		reps = append(reps, r)
	}
	elapsed := time.Since(start).Seconds()
	cost := procNow().sub(before)

	var hostSec, hostMs, rates []float64
	for _, r := range reps {
		hostSec = append(hostSec, r.hostSec)
		hostMs = append(hostMs, r.hostSec*1e3)
		rates = append(rates, 1/r.hostSec)
		if diff, ok := sameSim(reps[0].simValues(), r.simValues()); !ok {
			rec.fail(fmt.Errorf("repetitions disagree: %s", diff))
		}
	}
	n := float64(len(reps))
	rec.addSummary("ops_per_s", n/elapsed, len(reps), rates)
	rec.addSummary("op_p50_ms", median(hostMs), len(reps), hostMs)
	rec.add("cpu_ms_per_op", cost.cpu.Seconds()*1e3/n)
	rec.add("peak_rss_mib", peakRSSMiB())
	rec.addSegments("setup_s", setups)

	sim := reps[0].simValues()
	rec.add("sim_job_mean_s", sim["experiments.sim_job_mean_s_ignem"])
	rec.add("sim_mem_read_frac", sim["experiments.sim_mem_read_frac_ignem"])
	rec.add("sim_task_p99_s", sim["experiments.sim_task_p99_s_ladder"])
	rec.addSegments("sim_host_s", hostSec)
	return nil
}

// runSimTraced is paper_sim's traced run: one repetition for the
// modeled values and the layers' counters, the ladder once more through
// the tracing network for the RPC count and the overhead, then the
// probes.
func runSimTraced(e *env, rec *WorkloadRecord) error {
	rec.ClockScale = 0
	rec.Workers = 1
	tier, err := simSetup()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r, err := runSimRep(tier)
	if err != nil {
		return err
	}
	r.verify(rec)
	sim := r.simValues()
	names := make([]string, 0, len(sim))
	for name := range sim {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rec.add(name, sim[name])
	}
	tasks := float64(r.tasks())
	rec.add("mapreduce.tasks", tasks)
	rec.add("mapreduce.tasks_per_host_s", tasks/r.hostSec)
	rec.add("simclock.sim_s_per_host_s",
		(r.ladder.makespanSec+r.pinRAM.makespanSec)/(r.ladder.hostSec+r.pinRAM.hostSec))
	rec.add("cluster.bringup_ms", r.ladder.bringupSec*1e3)
	rec.add("cluster.preload_ms", r.ladder.preloadSec*1e3)

	e.tr.on.Store(true)
	traced, err := runTier(tier, tierSeed, "ladder", e.tr.net)
	e.tr.on.Store(false)
	if err != nil {
		return fmt.Errorf("traced ladder: %w", err)
	}
	var calls int
	for _, s := range e.tr.take() {
		if s.Side == sideCaller {
			calls++
		}
	}
	rec.add("transport.calls_per_op", float64(calls)/float64(len(traced.tasks)))
	rec.add("trace.overhead_frac", traced.hostSec/r.ladder.hostSec-1)
	if got, want := quantile(traced.tasks, 0.99), quantile(r.ladder.tasks, 0.99); math.Abs(got-want) > 0.01*want {
		rec.fail(fmt.Errorf("tracing moved the ladder's p99 task time: %g s traced, %g s untraced", got, want))
	}
	return runProbes(wlPaperSim, e, rec)
}
