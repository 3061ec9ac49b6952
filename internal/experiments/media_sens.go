package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/storage"
)

// The §II-B extension experiment: the paper argues that "regardless of
// whether cold job input data is stored on HDDs or SSDs, migrating the
// data into memory is key to maximizing performance". This runs the
// same 8 GB job with the cold tier on HDD and on SSD under all three
// file-system configurations.
const sensitivityInputBytes = 8 << 30

// MediaSensitivityResult maps medium -> mode -> duration.
type MediaSensitivityResult struct {
	Durations map[string]map[cluster.Mode]time.Duration
}

// RunMediaSensitivity runs the experiment.
func RunMediaSensitivity(seed int64) (*MediaSensitivityResult, error) {
	res := &MediaSensitivityResult{
		Durations: make(map[string]map[cluster.Mode]time.Duration),
	}
	media := []storage.Spec{storage.HDDSpec(), storage.SSDSpec()}
	for _, spec := range media {
		res.Durations[spec.Name] = make(map[cluster.Mode]time.Duration)
		for _, mode := range paperModes {
			ccfg := cluster.Config{Nodes: paperNodes, Media: spec, Mode: mode, Seed: seed}
			spec, mode := spec, mode
			err := runOnCluster(ccfg, func(v *simclock.Virtual, c *cluster.Cluster) error {
				cl, err := c.Client()
				if err != nil {
					return err
				}
				defer cl.Close()
				if err := cl.WriteSyntheticFile("/in", sensitivityInputBytes, 0, dfs.DefaultReplication); err != nil {
					return err
				}
				r, err := c.Engine.Run(mapreduce.Config{
					ID:           "job",
					InputPaths:   []string{"/in"},
					MapRateMBps:  250,
					ShuffleBytes: sensitivityInputBytes / 20,
					OutputBytes:  sensitivityInputBytes / 50,
					UseIgnem:     c.UseIgnem(),
				})
				if err != nil {
					return err
				}
				res.Durations[spec.Name][mode] = r.Duration
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("media-sensitivity %s/%s: %w", spec.Name, mode, err)
			}
		}
	}
	return res, nil
}

// Render prints the comparison table.
func (r *MediaSensitivityResult) Render() string {
	t := metrics.Table{
		Caption: fmt.Sprintf("§II-B extension: %s job with the cold tier on HDD vs SSD", gb(sensitivityInputBytes)),
		Header:  []string{"medium", "HDFS (s)", "Ignem (s)", "RAM (s)", "Ignem speedup", "RAM speedup"},
	}
	for _, medium := range []string{"hdd", "ssd"} {
		d := r.Durations[medium]
		base := d[cluster.ModeHDFS].Seconds()
		t.AddRow(medium,
			fmt.Sprintf("%.1f", base),
			fmt.Sprintf("%.1f", d[cluster.ModeIgnem].Seconds()),
			fmt.Sprintf("%.1f", d[cluster.ModeInputsInRAM].Seconds()),
			speedup(base, d[cluster.ModeIgnem].Seconds()),
			speedup(base, d[cluster.ModeInputsInRAM].Seconds()),
		)
	}
	return header("Media sensitivity — migration helps on SSD too (§II-B)") + t.String()
}
