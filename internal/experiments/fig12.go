package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/storage"
)

// mediaBlocksPerNode sizes the Fig 1/Fig 2 microbenchmarks (SWIM-style
// concurrent mapper reads with HDFS files stored on HDD, SSD, or RAM):
// ten concurrent readers per device, the SWIM-like concurrency.
const mediaBlocksPerNode = 10

// MediaResult holds per-medium block-read and mapper-task latencies.
type MediaResult struct {
	// BlockReads and TaskDurations are keyed by medium name
	// ("hdd", "ssd", "ram"), in seconds.
	BlockReads    map[string]*metrics.Series
	TaskDurations map[string]*metrics.Series
}

// RunMedia reproduces Figs 1 and 2: the same concurrent mapper workload
// against the three storage media.
func RunMedia(seed int64) (*MediaResult, error) {
	res := &MediaResult{
		BlockReads:    make(map[string]*metrics.Series),
		TaskDurations: make(map[string]*metrics.Series),
	}
	type medium struct {
		name  string
		media storage.Spec
		mode  cluster.Mode
	}
	for _, m := range []medium{
		{name: "hdd", media: storage.HDDSpec(), mode: cluster.ModeHDFS},
		{name: "ssd", media: storage.SSDSpec(), mode: cluster.ModeHDFS},
		{name: "ram", media: storage.HDDSpec(), mode: cluster.ModeInputsInRAM},
	} {
		reads := &metrics.Series{}
		tasks := &metrics.Series{}
		// The paper measures these distributions under the SWIM workload,
		// where ~10 readers contend per device; let one heartbeat fill
		// all slots so the microbench reaches that concurrency.
		ccfg := cluster.Config{
			Nodes: paperNodes, Media: m.media, Mode: m.mode, Seed: seed,
			MaxAssignPerHeartbeat: 10,
		}
		err := runOnCluster(ccfg, func(v *simclock.Virtual, c *cluster.Cluster) error {
			cl, err := c.Client()
			if err != nil {
				return err
			}
			defer cl.Close()
			total := int64(paperNodes*mediaBlocksPerNode) * dfs.DefaultBlockSize
			if err := cl.WriteSyntheticFile("/bench/input", total, 0, dfs.DefaultReplication); err != nil {
				return err
			}
			r, err := c.Engine.Run(mapreduce.Config{
				ID:             "media-bench",
				InputPaths:     []string{"/bench/input"},
				SubmitOverhead: -1, // measure the read path, not job setup
			})
			if err != nil {
				return err
			}
			for _, ev := range r.BlockReads {
				reads.AddDuration(ev.Duration)
			}
			for _, tr := range r.MapResults {
				tasks.AddDuration(tr.RunTime)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("media %s: %w", m.name, err)
		}
		res.BlockReads[m.name] = reads
		res.TaskDurations[m.name] = tasks
	}
	return res, nil
}

// Render prints Fig 1, the block-read histograms and the headline ratios
// (paper: RAM 160x faster than HDD, 7x faster than SSD), and Fig 2, the
// mapper-task CDFs (paper: RAM mean 23x below HDD).
func (r *MediaResult) Render() string {
	var b strings.Builder
	b.WriteString(header("Fig 1 — HDFS block read time by medium"))
	for _, m := range []string{"hdd", "ssd", "ram"} {
		b.WriteString(metrics.Histogram(fmt.Sprintf("(%s) block read time (s)", m), r.BlockReads[m], 8))
	}
	hdd, ssd, ram := r.BlockReads["hdd"].Mean(), r.BlockReads["ssd"].Mean(), r.BlockReads["ram"].Mean()
	fmt.Fprintf(&b, "mean: hdd %.2fs ssd %.3fs ram %.4fs — RAM %.0fx faster than HDD (paper 160x), %.1fx faster than SSD (paper 7x)\n",
		hdd, ssd, ram, hdd/ram, ssd/ram)

	b.WriteString("\n" + header("Fig 2 — mapper task runtime by medium"))
	b.WriteString(metrics.RenderCDF("CDF of mapper task runtime (s)", 11, r.TaskDurations))
	hdd, ram = r.TaskDurations["hdd"].Mean(), r.TaskDurations["ram"].Mean()
	fmt.Fprintf(&b, "mean task runtime: hdd %.2fs ram %.2fs — %.0fx (paper 23x)\n", hdd, ram, hdd/ram)
	return b.String()
}
