package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

// SortConfig controls the Table III standalone sort experiment.
type SortConfig struct {
	// InputBytes defaults to the paper's 40 GB of random text.
	InputBytes int64
	Nodes      int
	Seed       int64
}

func (c *SortConfig) setDefaults() {
	if c.InputBytes <= 0 {
		c.InputBytes = 40 << 30
	}
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
}

// SortResult holds the per-configuration sort durations.
type SortResult struct {
	Config    SortConfig
	Durations map[cluster.Mode]time.Duration
}

// RunSort reproduces Table III: a 40 GB sort under the three
// configurations. Sort shuffles its whole input and writes it all back.
func RunSort(cfg SortConfig) (*SortResult, error) {
	cfg.setDefaults()
	res := &SortResult{Config: cfg, Durations: make(map[cluster.Mode]time.Duration)}
	for _, mode := range []cluster.Mode{cluster.ModeHDFS, cluster.ModeIgnem, cluster.ModeInputsInRAM} {
		ccfg := cluster.Config{Nodes: cfg.Nodes, Mode: mode, Seed: cfg.Seed}
		err := runOnCluster(ccfg, func(v *simclock.Virtual, c *cluster.Cluster) error {
			cl, err := c.Client()
			if err != nil {
				return err
			}
			defer cl.Close()
			if err := cl.WriteSyntheticFile("/sort/input", cfg.InputBytes, 0, dfs.DefaultReplication); err != nil {
				return err
			}
			r, err := c.Engine.Run(mapreduce.Config{
				ID:             "sort",
				InputPaths:     []string{"/sort/input"},
				MapRateMBps:    400, // record parsing + partitioning
				ShuffleBytes:   cfg.InputBytes,
				OutputBytes:    cfg.InputBytes,
				Reducers:       cfg.Nodes * 2,
				ReduceRateMBps: 100, // external merge sort + replicated write-back
				UseIgnem:       c.UseIgnem(),
			})
			if err != nil {
				return err
			}
			res.Durations[mode] = r.Duration
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("sort %s: %w", mode, err)
		}
	}
	return res, nil
}

// Render prints Table III (paper: HDFS 147s; Ignem 114s, 22%; RAM 75s,
// 49%).
func (r *SortResult) Render() string {
	t := metrics.Table{
		Caption: "TABLE III: sort of " + gb(r.Config.InputBytes) + " (paper: 147s / 114s (22%) / 75s (49%))",
		Header:  []string{"config", "duration (s)", "speedup w.r.t HDFS"},
	}
	base := r.Durations[cluster.ModeHDFS].Seconds()
	for _, mode := range []cluster.Mode{cluster.ModeHDFS, cluster.ModeIgnem, cluster.ModeInputsInRAM} {
		d := r.Durations[mode].Seconds()
		t.AddRow(mode.String(), fmt.Sprintf("%.0f", d), speedup(base, d))
	}
	return header("Table III — sort workload") + t.String()
}

// WordcountConfig controls the Fig 8 input-size sweep.
type WordcountConfig struct {
	// SizesGB defaults to the paper's 1-12 GB sweep.
	SizesGB []int
	Nodes   int
	Seed    int64
	// ExtraLeadTime is the inserted delay of the Ignem+10s line.
	ExtraLeadTime time.Duration
}

func (c *WordcountConfig) setDefaults() {
	if len(c.SizesGB) == 0 {
		// The paper sweeps 1-12 GB; we extend to 24 GB because our
		// migration path is ~4x faster than the authors' testbed, which
		// shifts the Ignem+10s crossover right (the paper itself notes
		// the inflection depends on disk bandwidth and lead-time).
		c.SizesGB = []int{1, 2, 4, 8, 12, 16, 24}
	}
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.ExtraLeadTime <= 0 {
		c.ExtraLeadTime = 10 * time.Second
	}
}

// WordcountResult maps config label -> input GB -> duration.
type WordcountResult struct {
	Config    WordcountConfig
	Durations map[string]map[int]time.Duration
}

// WordcountLabels are the Fig 8 series in plot order.
var WordcountLabels = []string{"HDFS", "Ignem", "Ignem+10s", "HDFS-Inputs-in-RAM"}

// RunWordcount reproduces Fig 8: wordcount at several input sizes under
// HDFS, Ignem, Ignem with 10s of inserted lead-time, and inputs-in-RAM.
func RunWordcount(cfg WordcountConfig) (*WordcountResult, error) {
	cfg.setDefaults()
	res := &WordcountResult{Config: cfg, Durations: make(map[string]map[int]time.Duration)}
	type variant struct {
		label string
		mode  cluster.Mode
		extra time.Duration
	}
	variants := []variant{
		{"HDFS", cluster.ModeHDFS, 0},
		{"Ignem", cluster.ModeIgnem, 0},
		{"Ignem+10s", cluster.ModeIgnem, cfg.ExtraLeadTime},
		{"HDFS-Inputs-in-RAM", cluster.ModeInputsInRAM, 0},
	}
	for _, va := range variants {
		res.Durations[va.label] = make(map[int]time.Duration)
		for _, szGB := range cfg.SizesGB {
			size := int64(szGB) << 30
			ccfg := cluster.Config{Nodes: cfg.Nodes, Mode: va.mode, Seed: cfg.Seed}
			err := runOnCluster(ccfg, func(v *simclock.Virtual, c *cluster.Cluster) error {
				cl, err := c.Client()
				if err != nil {
					return err
				}
				defer cl.Close()
				if err := cl.WriteSyntheticFile("/wc/input", size, 0, dfs.DefaultReplication); err != nil {
					return err
				}
				r, err := c.Engine.Run(mapreduce.Config{
					ID:            "wordcount",
					InputPaths:    []string{"/wc/input"},
					MapRateMBps:   250, // tokenizing is compute-heavy
					ShuffleBytes:  size / 20,
					OutputBytes:   size / 50,
					UseIgnem:      c.UseIgnem(),
					ExtraLeadTime: va.extra,
				})
				if err != nil {
					return err
				}
				res.Durations[va.label][szGB] = r.Duration
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("wordcount %s %dGB: %w", va.label, szGB, err)
			}
		}
	}
	return res, nil
}

// Render prints Fig 8 as relative durations versus HDFS (paper: Ignem
// matches RAM up to 2 GB; Ignem+10s overtakes plain Ignem by 4 GB).
func (r *WordcountResult) Render() string {
	var b strings.Builder
	b.WriteString(header("Fig 8 — wordcount duration vs input size (relative to HDFS)"))
	fmt.Fprintf(&b, "%-20s", "config \\ GB")
	for _, sz := range r.Config.SizesGB {
		fmt.Fprintf(&b, "%8d", sz)
	}
	b.WriteByte('\n')
	for _, label := range WordcountLabels {
		fmt.Fprintf(&b, "%-20s", label)
		for _, sz := range r.Config.SizesGB {
			base := r.Durations["HDFS"][sz]
			if base <= 0 {
				fmt.Fprintf(&b, "%8s", "-")
				continue
			}
			fmt.Fprintf(&b, "%8.2f", float64(r.Durations[label][sz])/float64(base))
		}
		b.WriteByte('\n')
	}
	b.WriteString("absolute durations (s):\n")
	for _, label := range WordcountLabels {
		fmt.Fprintf(&b, "%-20s", label)
		for _, sz := range r.Config.SizesGB {
			fmt.Fprintf(&b, "%8.1f", r.Durations[label][sz].Seconds())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
