package experiments

import (
	"slices"

	"repro/internal/cluster"
)

// Result is an experiment's run: its tables and figures as text. A
// result that can export its raw series for plotting also implements
// DataWriter.
type Result interface{ Render() string }

// Spec is a runnable experiment in the registry.
type Spec struct {
	// ID is the table/figure identifier, e.g. "fig8" or "table1".
	ID string
	// Title describes what the experiment reproduces.
	Title string
	// Run executes the experiment at paper scale.
	Run func(seed int64) (Result, error)
	// Claims are the paper's results this experiment's run is checked
	// against; EXPERIMENTS.md carries them as its Paper / Measured /
	// Verdict tables.
	Claims []Claim
}

// run adapts a typed experiment runner to Spec.Run.
func run[R Result](f func(seed int64) (R, error)) func(int64) (Result, error) {
	return func(seed int64) (Result, error) {
		r, err := f(seed)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

// modesRising orders the three configurations by the paper's expected
// duration, fastest first.
var modesRising = []cluster.Mode{cluster.ModeInputsInRAM, cluster.ModeIgnem, cluster.ModeHDFS}

// All returns the registry of experiments, one entry per paper table or
// figure (grouped where one run produces several).
func All() []Spec {
	return []Spec{
		{
			ID:    "fig1-2",
			Title: "Figs 1-2: block-read and mapper-task latency on HDD/SSD/RAM",
			Run:   run(RunMedia),
			Claims: []Claim{
				value("Fig 1", "64 MB block read, RAM vs HDD (SWIM-like concurrency)", 160, "%.0fx", Match,
					func(r *MediaResult) float64 { return r.BlockReads["hdd"].Mean() / r.BlockReads["ram"].Mean() }),
				value("Fig 1", "64 MB block read, RAM vs SSD", 7, "%.1fx", Match,
					func(r *MediaResult) float64 { return r.BlockReads["ssd"].Mean() / r.BlockReads["ram"].Mean() }),
				order("Fig 1", "mean block read, RAM < SSD < HDD", "%.3g s", Holds, func(r *MediaResult) []float64 {
					return []float64{r.BlockReads["ram"].Mean(), r.BlockReads["ssd"].Mean(), r.BlockReads["hdd"].Mean()}
				}),
				value("Fig 2", "mapper task runtime, HDD vs RAM", 23, "%.0fx", Match,
					func(r *MediaResult) float64 { return r.TaskDurations["hdd"].Mean() / r.TaskDurations["ram"].Mean() }),
			},
		},
		{
			ID:    "fig3-4",
			Title: "Figs 3-4: Google-trace lead-time sufficiency and disk utilization",
			Run:   func(seed int64) (Result, error) { return RunTraceAnalysis(seed), nil },
			Claims: []Claim{
				value("Fig 3", "jobs whose lead-time covers their read-time", 81, "%.0f%%", Match,
					func(r *TraceResult) float64 { return r.FracSufficient * 100 }),
				value("Fig 3", "job lead-time, mean", 8.8, "%.1f s", Match,
					func(r *TraceResult) float64 { return r.LeadMean.Seconds() }),
				value("Fig 3", "job lead-time, median", 1.8, "%.1f s", Match,
					func(r *TraceResult) float64 { return r.LeadMedian.Seconds() }),
				value("Fig 4", "mean disk utilization, analyzed day", 3.1, "%.1f%%", Match,
					func(r *TraceResult) float64 { return r.DayMeanUtil * 100 }),
				value("Fig 4", "mean disk utilization, month", 1.3, "%.1f%%", Match,
					func(r *TraceResult) float64 { return r.MonthMeanUtil * 100 }),
				order("Fig 4", "month mean below the analyzed (busy) day", "%.1f%%", Holds,
					func(r *TraceResult) []float64 { return []float64{r.MonthMeanUtil * 100, r.DayMeanUtil * 100} }),
				order("Fig 4", "peak of the 40-server mean, under 5% at all times⁷", "%.1f%%", Fails,
					func(r *TraceResult) []float64 { _, peak := r.meanLine(); return []float64{peak * 100, 5} }),
			},
		},
		{
			ID:    "swim",
			Title: "Tables I-II, Figs 5-7, ablation: the SWIM trace-driven workload",
			Run:   run(func(seed int64) (*SwimResult, error) { return RunSwim(SwimConfig{Seed: seed}) }),
			Claims: []Claim{
				value("Table I", "mean job duration, HDFS", 14.4, "%.1f s", Match,
					func(r *SwimResult) float64 { return r.jobMean(cluster.ModeHDFS) }),
				value("Table I", "Ignem speedup", 12, "%.0f%%", Close,
					func(r *SwimResult) float64 { return r.jobGain(cluster.ModeIgnem) }),
				value("Table I", "Inputs-in-RAM speedup (upper bound)¹", 21, "%.0f%%", Close,
					func(r *SwimResult) float64 { return r.jobGain(cluster.ModeInputsInRAM) }),
				order("Table I", "mean job duration, RAM < Ignem < HDFS", "%.1f s", Holds, func(r *SwimResult) []float64 {
					return mapSlice(modesRising, r.jobMean)
				}),
				value("Fig 5", "small-job speedup (≤ 64 MB)", 8.8, "%.1f%%", Close,
					func(r *SwimResult) float64 { return r.binGain("small", cluster.ModeIgnem) }),
				value("Fig 5", "medium-job speedup (64–512 MB)²", 7.7, "%.1f%%", Differs,
					func(r *SwimResult) float64 { return r.binGain("medium", cluster.ModeIgnem) }),
				value("Fig 5", "large-job speedup (> 512 MB)", 25, "%.1f%%", Match,
					func(r *SwimResult) float64 { return r.binGain("large", cluster.ModeIgnem) }),
				value("Fig 5", "RAM large-job reduction", 60, "%.1f%%", Match,
					func(r *SwimResult) float64 { return r.binGain("large", cluster.ModeInputsInRAM) }),
				value("Table II", "mean mapper duration, HDFS", 6.44, "%.2f s", Match,
					func(r *SwimResult) float64 { return r.taskMean(cluster.ModeHDFS) }),
				value("Table II", "mean mapper duration, Ignem", 4.03, "%.2f s", Match,
					func(r *SwimResult) float64 { return r.taskMean(cluster.ModeIgnem) }),
				value("Table II", "mean mapper duration, Inputs-in-RAM", 0.28, "%.2f s", Close,
					func(r *SwimResult) float64 { return r.taskMean(cluster.ModeInputsInRAM) }),
				value("Table II", "Ignem task speedup", 38, "%.0f%%", Match,
					func(r *SwimResult) float64 { return r.taskGain() }),
				order("§IV-C3", "Ignem's job-level gain below its task-level gain", "%.1f%%", Holds,
					func(r *SwimResult) []float64 { return []float64{r.jobGain(cluster.ModeIgnem), r.taskGain()} }),
				value("Fig 6", "mean block-read reduction", 40, "%.0f%%", Match, func(r *SwimResult) float64 {
					return gain(r.Modes[cluster.ModeHDFS].BlockReads.Mean(), r.Modes[cluster.ModeIgnem].BlockReads.Mean())
				}),
				value("Fig 6", "block reads served from memory³", 60, "%.0f%%", Close,
					func(r *SwimResult) float64 { return r.Modes[cluster.ModeIgnem].MemoryFromReads * 100 }),
				order("Fig 6", "non-migrated (disk) reads faster under Ignem than under HDFS⁶", "%.2f s", Fails, func(r *SwimResult) []float64 {
					return []float64{r.Modes[cluster.ModeIgnem].DiskReads.Mean(), r.Modes[cluster.ModeHDFS].DiskReads.Mean()}
				}),
				value("Fig 7", "instantaneous scheme's memory over Ignem's", 2.6, "%.1fx", Close,
					func(r *SwimResult) float64 {
						return r.HypotheticalMemory.Mean() / r.Modes[cluster.ModeIgnem].MemoryPerServer.Mean()
					}),
				order("Fig 7", "mean occupancy, Ignem < instantaneous scheme", "%.0f MB", Holds, func(r *SwimResult) []float64 {
					return []float64{r.Modes[cluster.ModeIgnem].MemoryPerServer.Mean() / (1 << 20), r.HypotheticalMemory.Mean() / (1 << 20)}
				}),
				value("§IV-C5", "FIFO ablation: speedup points lost", 2, "%.1f", Close, func(r *SwimResult) float64 {
					return r.jobGain(cluster.ModeIgnem) - gain(r.jobMean(cluster.ModeHDFS), r.FIFOJobDurations.Mean())
				}),
			},
		},
		{
			ID:    "table3",
			Title: "Table III: standalone 40 GB sort",
			Run:   run(RunSort),
			Claims: []Claim{
				value("Table III", "sort 40 GB, HDFS duration", 147, "%.0f s", Close,
					func(r *SortResult) float64 { return r.Durations[cluster.ModeHDFS].Seconds() }),
				value("Table III", "sort 40 GB, Ignem speedup⁴", 22, "%.0f%%", Close,
					func(r *SortResult) float64 { return r.gain(cluster.ModeIgnem) }),
				value("Table III", "sort 40 GB, RAM speedup", 49, "%.0f%%", Match,
					func(r *SortResult) float64 { return r.gain(cluster.ModeInputsInRAM) }),
				order("Table III", "sort duration, RAM < Ignem < HDFS", "%.0f s", Holds, func(r *SortResult) []float64 {
					return mapSlice(modesRising, func(m cluster.Mode) float64 { return r.Durations[m].Seconds() })
				}),
			},
		},
		{
			ID:    "fig8",
			Title: "Fig 8: wordcount input-size sweep with inserted lead-time",
			Run:   run(RunWordcount),
			Claims: []Claim{
				value("Fig 8", "Ignem over the RAM bound at 1 GB", 1, "%.2f", Match,
					func(r *WordcountResult) float64 { return r.seconds("Ignem", 1) / r.seconds("HDFS-Inputs-in-RAM", 1) }),
				value("Fig 8", "input where Ignem's relative benefit peaks⁵", 2, "%.0f GB", Differs, func(r *WordcountResult) float64 {
					rel := mapSlice(wordcountSizesGB, r.relative("Ignem"))
					return float64(wordcountSizesGB[slices.Index(rel, slices.Min(rel))])
				}),
				order("Fig 8", "at 1 GB, HDFS < Ignem+10s", "%.1f s", Holds,
					func(r *WordcountResult) []float64 { return []float64{r.seconds("HDFS", 1), r.seconds("Ignem+10s", 1)} }),
				value("Fig 8", "smallest input where Ignem+10s beats plain Ignem⁵", 4, "%.0f GB", Differs, func(r *WordcountResult) float64 {
					for _, sz := range wordcountSizesGB {
						if r.Durations["Ignem+10s"][sz] < r.Durations["Ignem"][sz] {
							return float64(sz)
						}
					}
					return 0
				}),
				order("Fig 8", "Ignem over HDFS at its worst input size, below 1", "%.2f", Holds, func(r *WordcountResult) []float64 {
					return []float64{slices.Max(mapSlice(wordcountSizesGB, r.relative("Ignem"))), 1}
				}),
			},
		},
		{
			ID:    "baseline",
			Title: "Baseline (§I, §V): hot-data caching vs proactive migration",
			Run:   run(RunBaseline),
			Claims: []Claim{
				order("§I", "hot-cache speedup on singly-read inputs below 3%", "%.1f%%", Holds, func(r *BaselineResult) []float64 {
					return []float64{gain(r.SinglyRead[cluster.ModeHDFS].Seconds(), r.SinglyRead[cluster.ModeHotCache].Seconds()), 3}
				}),
				order("§I", "singly-read inputs, Ignem < HDFS", "%.1f s", Holds, func(r *BaselineResult) []float64 {
					return []float64{r.SinglyRead[cluster.ModeIgnem].Seconds(), r.SinglyRead[cluster.ModeHDFS].Seconds()}
				}),
				order("§I", "iterative job's first pass, Ignem < hot cache", "%.1f s", Holds, func(r *BaselineResult) []float64 {
					return []float64{r.IterFirst[cluster.ModeIgnem].Seconds(), r.IterFirst[cluster.ModeHotCache].Seconds()}
				}),
				order("§I", "iterative job's later passes, Ignem < hot cache < HDFS", "%.1f s", Holds, func(r *BaselineResult) []float64 {
					return mapSlice([]cluster.Mode{cluster.ModeIgnem, cluster.ModeHotCache, cluster.ModeHDFS},
						func(m cluster.Mode) float64 { return r.IterLater[m].Seconds() })
				}),
			},
		},
		{
			ID:    "media",
			Title: "Extension (§II-B): the same job with cold data on HDD vs SSD",
			Run:   run(RunMediaSensitivity),
			Claims: []Claim{
				order("§II-B", "cold tier on HDD, RAM < Ignem < HDFS", "%.1f s", Holds, func(r *MediaSensitivityResult) []float64 {
					return mapSlice(modesRising, func(m cluster.Mode) float64 { return r.Durations["hdd"][m].Seconds() })
				}),
				order("§II-B", "cold tier on SSD, Ignem over HDFS within 5%", "%.3f", Holds, func(r *MediaSensitivityResult) []float64 {
					return []float64{r.Durations["ssd"][cluster.ModeIgnem].Seconds() / r.Durations["ssd"][cluster.ModeHDFS].Seconds(), 1.05}
				}),
				order("§II-B", "Ignem's gain on SSD below its gain on HDD", "%.3f s", Holds, func(r *MediaSensitivityResult) []float64 {
					return mapSlice([]string{"ssd", "hdd"}, func(m string) float64 {
						return (r.Durations[m][cluster.ModeHDFS] - r.Durations[m][cluster.ModeIgnem]).Seconds()
					})
				}),
			},
		},
		{
			ID:    "fig9",
			Title: "Fig 9: Hive TPC-DS query catalog",
			Run:   run(RunHive),
			Claims: []Claim{
				value("Fig 9", "Hive mean speedup", 20, "%.0f%%", Match, func(r *HiveResult) float64 { return r.meanGain() }),
				value("Fig 9", "best query's speedup (paper: q3)", 34, "%.0f%%", Match,
					func(r *HiveResult) float64 { return slices.Max(mapSlice(hiveQueries(), r.gain)) }),
				order("Fig 9", "q3 gains more than any other query", "%.0f%%", Holds, func(r *HiveResult) []float64 {
					others := slices.DeleteFunc(hiveQueries(), func(q string) bool { return q == "q3" })
					return []float64{slices.Max(mapSlice(others, r.gain)), r.gain("q3")}
				}),
				order("Fig 9", "the largest queries gain least, less as they grow: q29 < q25 < q82", "%.0f%%", Holds,
					func(r *HiveResult) []float64 { return mapSlice([]string{"q29", "q25", "q82"}, r.gain) }),
				order("Fig 9", "Ignem over HDFS on its worst query, below 1", "%.2f", Holds, func(r *HiveResult) []float64 {
					return []float64{1 - slices.Min(mapSlice(hiveQueries(), r.gain))/100, 1}
				}),
			},
		},
		{
			ID:    "ladder",
			Title: "Extension (DESIGN §4h): the HDD→SSD→RAM tier ladder vs pin-in-RAM at RAM = 25%",
			Run:   run(RunLadder),
			Claims: []Claim{
				order("DESIGN §4h", "p99 map-task time, ladder < pin-in-RAM", "%.2f s", Holds,
					func(r *LadderResult) []float64 { return []float64{p99(r.Ladder), p99(r.PinRAM)} }),
			},
		},
	}
}

// mapSlice applies f to each element of s.
func mapSlice[T any](s []T, f func(T) float64) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = f(x)
	}
	return out
}
