package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/hive"
	"repro/internal/metrics"
)

// DataWriter is implemented by experiment results that can export their
// raw series as CSV files for external plotting.
type DataWriter interface {
	// WriteData writes one or more tidy CSV files into dir and returns
	// the paths written.
	WriteData(dir string) ([]string, error)
}

// writeCSVs writes each named table (first row = header) into dir and
// returns the paths written, sorted.
func writeCSVs(dir string, files map[string][][]string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for name, rows := range files {
		var b strings.Builder
		for _, row := range rows {
			b.WriteString(strings.Join(row, ","))
			b.WriteByte('\n')
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return paths, nil
}

// seriesRows renders a per-sample series as (label, value) rows.
func seriesRows(header string, labelled map[string]*metrics.Series) [][]string {
	rows := [][]string{{"series", header}}
	labels := make([]string, 0, len(labelled))
	for l := range labelled {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		for _, v := range labelled[l].Values() {
			rows = append(rows, []string{l, fmt.Sprintf("%g", v)})
		}
	}
	return rows
}

// WriteData exports Fig 1 block reads and Fig 2 task runtimes.
func (r *MediaResult) WriteData(dir string) ([]string, error) {
	return writeCSVs(dir, map[string][][]string{
		"fig1_block_reads.csv":   seriesRows("read_seconds", r.BlockReads),
		"fig2_task_runtimes.csv": seriesRows("task_seconds", r.TaskDurations),
	})
}

// WriteData exports the Fig 3 ratio samples and Fig 4 utilization grid.
func (r *TraceResult) WriteData(dir string) ([]string, error) {
	rows := [][]string{{"server", "window", "utilization"}}
	for s, series := range r.ServerUtil {
		for w, u := range series {
			rows = append(rows, []string{
				fmt.Sprint(s), fmt.Sprint(w), fmt.Sprintf("%g", u),
			})
		}
	}
	return writeCSVs(dir, map[string][][]string{
		"fig3_read_over_lead.csv":     seriesRows("ratio", map[string]*metrics.Series{"ratio": r.Ratios}),
		"fig4_server_utilization.csv": rows,
	})
}

// WriteData exports the SWIM job/task/block series and the Fig 7 memory
// samples.
func (r *SwimResult) WriteData(dir string) ([]string, error) {
	jobs := map[string]*metrics.Series{"Ignem-FIFO": r.FIFOJobDurations}
	tasks := map[string]*metrics.Series{}
	reads := map[string]*metrics.Series{}
	for mode, mr := range r.Modes {
		jobs[mode.String()] = mr.JobDurations
		tasks[mode.String()] = mr.TaskDurations
		reads[mode.String()] = mr.BlockReads
	}
	files := map[string][][]string{}
	for name, data := range map[string]map[string]*metrics.Series{
		"table1_job_durations.csv":  jobs,
		"table2_task_durations.csv": tasks,
		"fig6_block_reads.csv":      reads,
		"fig7_memory.csv": {
			"ignem":        r.Modes[cluster.ModeIgnem].MemoryPerServer,
			"hypothetical": r.HypotheticalMemory,
		},
	} {
		files[name] = seriesRows("seconds_or_bytes", data)
	}
	return writeCSVs(dir, files)
}

// WriteData exports the sort durations.
func (r *SortResult) WriteData(dir string) ([]string, error) {
	rows := [][]string{{"config", "seconds"}}
	for _, mode := range paperModes {
		rows = append(rows, []string{mode.String(), fmt.Sprintf("%g", r.Durations[mode].Seconds())})
	}
	return writeCSVs(dir, map[string][][]string{"table3_sort.csv": rows})
}

// WriteData exports the Fig 8 sweep matrix.
func (r *WordcountResult) WriteData(dir string) ([]string, error) {
	rows := [][]string{{"config", "input_gb", "seconds"}}
	for _, label := range WordcountLabels {
		for _, sz := range wordcountSizesGB {
			rows = append(rows, []string{
				label, fmt.Sprint(sz), fmt.Sprintf("%g", r.seconds(label, sz)),
			})
		}
	}
	return writeCSVs(dir, map[string][][]string{"fig8_wordcount.csv": rows})
}

// WriteData exports the Fig 9 query durations and input sizes.
func (r *HiveResult) WriteData(dir string) ([]string, error) {
	rows := [][]string{{"query", "input_gb", "config", "seconds"}}
	for _, q := range hive.Catalog() {
		for _, mode := range paperModes {
			rows = append(rows, []string{
				q.Name,
				fmt.Sprintf("%g", float64(q.InputBytes)/float64(1<<30)),
				mode.String(),
				fmt.Sprintf("%g", r.Durations[mode][q.Name].Seconds()),
			})
		}
	}
	return writeCSVs(dir, map[string][][]string{"fig9_hive.csv": rows})
}
