// Package experiments regenerates every table and figure in the paper's
// evaluation (§II and §IV). Each experiment returns a typed result with
// the measured numbers plus a Render method that prints the table/figure
// as text, and records the paper's published values alongside for
// comparison. cmd/ignem-bench runs them through the registry (All), and
// testdata/<id>.golden pins the rendered output of each registry entry.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

// paperNodes is the paper's testbed: eight worker nodes.
const paperNodes = 8

// paperModes are the paper's three file-system configurations, in the
// order its tables list them.
var paperModes = []cluster.Mode{cluster.ModeHDFS, cluster.ModeIgnem, cluster.ModeInputsInRAM}

// WallTimeout bounds each experiment's real (wall-clock) runtime; a
// stalled virtual-time simulation fails instead of hanging.
const WallTimeout = 30 * time.Minute

// runOnCluster starts a cluster inside a fresh virtual-time simulation,
// runs fn, and tears everything down.
func runOnCluster(cfg cluster.Config, fn func(v *simclock.Virtual, c *cluster.Cluster) error) error {
	var inner error
	err := cluster.RunVirtual(WallTimeout, func(v *simclock.Virtual) {
		c, err := cluster.Start(v, cfg)
		if err != nil {
			inner = err
			return
		}
		defer c.Close()
		inner = fn(v, c)
	})
	if err != nil {
		return err
	}
	return inner
}

// gain is the percentage by which other is below base.
func gain(base, other float64) float64 { return (1 - other/base) * 100 }

// speedup formats the paper's "Speedup w.r.t HDFS" column. A slowdown
// too small to show rounds to "0%", not to a signed "-0%".
func speedup(base, other float64) string {
	if base <= 0 {
		return ""
	}
	if s := fmt.Sprintf("%.0f%%", gain(base, other)); s != "-0%" {
		return s
	}
	return "0%"
}

// modeTable renders the paper's per-configuration table: each mode's
// value and its speedup w.r.t. HDFS.
func modeTable(caption, column, format string, value func(cluster.Mode) float64) string {
	t := metrics.Table{Caption: caption, Header: []string{"config", column, "speedup w.r.t HDFS"}}
	for _, mode := range paperModes {
		t.AddRow(mode.String(), fmt.Sprintf(format, value(mode)), speedup(value(cluster.ModeHDFS), value(mode)))
	}
	return t.String()
}

// gb renders a byte count in GB with one decimal.
func gb(b int64) string { return fmt.Sprintf("%.1f GB", float64(b)/float64(1<<30)) }

// header renders an underlined experiment title.
func header(title string) string {
	return fmt.Sprintf("%s\n%s\n", title, strings.Repeat("=", len(title)))
}
