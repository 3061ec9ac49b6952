package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/hive"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

// hiveTrials averages each Fig 9 query's duration over several runs to
// damp heartbeat-phase noise.
const hiveTrials = 3

// HiveResult maps configuration -> query name -> duration.
type HiveResult struct {
	Durations map[cluster.Mode]map[string]time.Duration
}

// RunHive reproduces Fig 9: the TPC-DS query catalog under HDFS, Ignem
// and inputs-in-RAM. Each configuration gets a fresh cluster with all
// warehouse tables loaded.
func RunHive(seed int64) (*HiveResult, error) {
	queries := hive.Catalog()
	res := &HiveResult{Durations: make(map[cluster.Mode]map[string]time.Duration)}
	for _, mode := range paperModes {
		res.Durations[mode] = make(map[string]time.Duration)
		ccfg := cluster.Config{Nodes: paperNodes, Mode: mode, Seed: seed}
		mode := mode
		err := runOnCluster(ccfg, func(v *simclock.Virtual, c *cluster.Cluster) error {
			h := hive.New(c.Engine, c.UseIgnem())
			cl, err := c.Client()
			if err != nil {
				return err
			}
			defer cl.Close()
			if err := h.SetupTables(cl, queries); err != nil {
				return err
			}
			for trial := 0; trial < hiveTrials; trial++ {
				for qi, q := range queries {
					// Decorrelate each run from the scheduler heartbeat
					// phase, as real back-to-back query runs would be.
					v.Sleep(time.Duration(300+700*trial+137*qi) * time.Millisecond)
					qr, err := h.RunQuery(q, fmt.Sprintf("%s-t%d", mode, trial))
					if err != nil {
						return fmt.Errorf("query %s: %w", q.Name, err)
					}
					res.Durations[mode][q.Name] += qr.Duration / hiveTrials
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("hive %s: %w", mode, err)
		}
	}
	return res, nil
}

// hiveQueries lists the catalog's query names in input-size order.
func hiveQueries() []string {
	var names []string
	for _, q := range hive.Catalog() {
		names = append(names, q.Name)
	}
	return names
}

// gain is Ignem's gain over HDFS on one query, in percent.
func (r *HiveResult) gain(query string) float64 {
	return gain(r.Durations[cluster.ModeHDFS][query].Seconds(), r.Durations[cluster.ModeIgnem][query].Seconds())
}

// meanGain is Ignem's gain over HDFS averaged over the queries.
func (r *HiveResult) meanGain() float64 {
	var sum float64
	names := hiveQueries()
	for _, q := range names {
		sum += r.gain(q)
	}
	return sum / float64(len(names))
}

// Render prints Fig 9: query durations per configuration plus input
// sizes, queries sorted by input size (paper: up to 34% for q3, 20%
// mean; the big-input queries q82/q25/q29 gain less).
func (r *HiveResult) Render() string {
	var b strings.Builder
	b.WriteString(header("Fig 9 — Hive TPC-DS query durations"))
	t := metrics.Table{
		Caption: "(a) query durations (s) and Ignem speedup vs HDFS",
		Header:  []string{"query", "HDFS", "Ignem", "RAM", "Ignem speedup"},
	}
	for _, q := range hive.Catalog() {
		hd := r.Durations[cluster.ModeHDFS][q.Name].Seconds()
		ig := r.Durations[cluster.ModeIgnem][q.Name].Seconds()
		ram := r.Durations[cluster.ModeInputsInRAM][q.Name].Seconds()
		t.AddRow(q.Name, fmt.Sprintf("%.0f", hd), fmt.Sprintf("%.0f", ig), fmt.Sprintf("%.0f", ram), speedup(hd, ig))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "mean Ignem speedup: %.0f%% (paper: 20%%, max 34%%)\n", r.meanGain())
	var entries []metrics.BarEntry
	for _, q := range hive.Catalog() {
		entries = append(entries, metrics.BarEntry{Label: q.Name, Value: float64(q.InputBytes) / float64(1<<30)})
	}
	b.WriteString(metrics.BarChart("(b) query input size", "GB", entries))
	return b.String()
}
