package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/gtrace"
	"repro/internal/hive"
)

// The tests here run every experiment at reduced scale and assert the
// paper's qualitative shapes. The full-scale output of each registry
// entry is pinned in testdata/<id>.golden (TestExperimentsMatchGoldens
// diffs it, `make golden` rewrites it) and discussed in EXPERIMENTS.md.

func TestSpeedupFormat(t *testing.T) {
	cases := []struct {
		base, other float64
		want        string
	}{
		{0, 5, ""},
		{-1, 5, ""},
		{10, 10, "0%"},
		{13.6, 13.61, "0%"}, // tiny slowdown: no signed zero
		{13.6, 13.59, "0%"},
		{10, 5, "50%"},
		{10, 12, "-20%"},
		{10, 0, "100%"},
	}
	for _, tc := range cases {
		if got := speedup(tc.base, tc.other); got != tc.want {
			t.Errorf("speedup(%v, %v) = %q, want %q", tc.base, tc.other, got, tc.want)
		}
	}
}

func TestMediaExperimentShape(t *testing.T) {
	r, err := RunMedia(MediaConfig{Nodes: 4, BlocksPerNode: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hdd := r.BlockReads["hdd"].Mean()
	ssd := r.BlockReads["ssd"].Mean()
	ram := r.BlockReads["ram"].Mean()
	if !(ram < ssd && ssd < hdd) {
		t.Errorf("ordering violated: hdd=%v ssd=%v ram=%v", hdd, ssd, ram)
	}
	if hdd/ram < 30 {
		t.Errorf("hdd/ram = %.0fx, want large factor", hdd/ram)
	}
	if r.TaskDurations["hdd"].Mean()/r.TaskDurations["ram"].Mean() < 5 {
		t.Error("task-level speedup too small")
	}
	out := r.Render()
	for _, want := range []string{"Fig 1", "Fig 2", "hdd", "ram"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTraceAnalysisShape(t *testing.T) {
	r := RunTraceAnalysis(gtrace.Config{Servers: 10, Duration: 2 * time.Hour, Seed: 2})
	if r.FracSufficient < 0.7 || r.FracSufficient > 0.92 {
		t.Errorf("sufficiency = %.2f, want ~0.81", r.FracSufficient)
	}
	if r.DayMeanUtil > 0.08 {
		t.Errorf("day util = %.3f, want low residual utilization", r.DayMeanUtil)
	}
	if r.MonthMeanUtil >= r.DayMeanUtil {
		t.Error("month mean should be below the analyzed (busy) day")
	}
	out := r.Render()
	for _, want := range []string{"Fig 3", "Fig 4", "lead-time"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestSwimExperimentShape(t *testing.T) {
	r, err := RunSwim(SwimConfig{
		Jobs:       30,
		TotalBytes: 6 << 30,
		Nodes:      4,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	hdfs := r.Modes[cluster.ModeHDFS]
	ignem := r.Modes[cluster.ModeIgnem]
	ram := r.Modes[cluster.ModeInputsInRAM]

	if hdfs.JobDurations.Len() != 30 || ignem.JobDurations.Len() != 30 {
		t.Fatalf("job counts: hdfs=%d ignem=%d", hdfs.JobDurations.Len(), ignem.JobDurations.Len())
	}
	// The paper's ordering: RAM <= Ignem <= HDFS on means.
	if !(ram.JobDurations.Mean() < ignem.JobDurations.Mean() &&
		ignem.JobDurations.Mean() < hdfs.JobDurations.Mean()) {
		t.Errorf("mean ordering violated: hdfs=%.1f ignem=%.1f ram=%.1f",
			hdfs.JobDurations.Mean(), ignem.JobDurations.Mean(), ram.JobDurations.Mean())
	}
	// Task-level gains exceed job-level gains (paper §IV-C3).
	jobGain := 1 - ignem.JobDurations.Mean()/hdfs.JobDurations.Mean()
	taskGain := 1 - ignem.TaskDurations.Mean()/hdfs.TaskDurations.Mean()
	if taskGain <= jobGain {
		t.Errorf("task gain %.2f not above job gain %.2f", taskGain, jobGain)
	}
	// Ignem migrated something and served reads from memory.
	if ignem.MemoryFromReads <= 0.05 {
		t.Errorf("memory-read fraction = %.2f", ignem.MemoryFromReads)
	}
	// No pinned memory survives the workload (implicit evict + job evict).
	if ignem.Slave.PinnedBytes != 0 {
		t.Errorf("leaked %d pinned bytes", ignem.Slave.PinnedBytes)
	}
	// The hypothetical scheme holds at least as much memory as Ignem.
	if r.HypotheticalMemory.Mean() < ignem.MemoryPerServer.Mean() {
		t.Errorf("hypothetical %.0f below Ignem %.0f",
			r.HypotheticalMemory.Mean(), ignem.MemoryPerServer.Mean())
	}
	parts := []string{
		r.RenderTable1(), r.RenderFig5(), r.RenderTable2(),
		r.RenderFig6(), r.RenderFig7(), r.RenderAblation(),
	}
	for _, render := range parts {
		if render == "" {
			t.Error("empty render")
		}
	}
	if r.Render() != strings.Join(parts, "\n") {
		t.Error("Render is not every figure and table in order")
	}

	// The CSV export: one file per table and figure, one row per sample.
	paths, err := r.WriteData(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range paths {
		names = append(names, filepath.Base(p))
	}
	want := []string{"fig6_block_reads.csv", "fig7_memory.csv", "table1_job_durations.csv", "table2_task_durations.csv"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("swim export wrote %v, want %v", names, want)
	}
	jobRows := hdfs.JobDurations.Len() + ignem.JobDurations.Len() + ram.JobDurations.Len() + r.FIFOJobDurations.Len()
	if lines := csvLines(t, paths[2]); lines[0] != "series,seconds_or_bytes" || len(lines) != 1+jobRows {
		t.Errorf("table1 csv: header %q, %d rows, want %d", lines[0], len(lines)-1, jobRows)
	}
}

// csvLines reads an exported CSV file as its lines.
func csvLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(string(data)), "\n")
}

func TestSortExperimentShape(t *testing.T) {
	r, err := RunSort(SortConfig{InputBytes: 4 << 30, Nodes: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	hdfs := r.Durations[cluster.ModeHDFS]
	ignem := r.Durations[cluster.ModeIgnem]
	ram := r.Durations[cluster.ModeInputsInRAM]
	if !(ram < ignem && ignem < hdfs) {
		t.Errorf("ordering violated: hdfs=%v ignem=%v ram=%v", hdfs, ignem, ram)
	}
	if !strings.Contains(r.Render(), "TABLE III") {
		t.Error("render missing caption")
	}
}

func TestWordcountExperimentShape(t *testing.T) {
	r, err := RunWordcount(WordcountConfig{SizesGB: []int{1, 4}, Nodes: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, sz := range []int{1, 4} {
		hdfs := r.Durations["HDFS"][sz]
		ignem := r.Durations["Ignem"][sz]
		ram := r.Durations["HDFS-Inputs-in-RAM"][sz]
		if ignem >= hdfs {
			t.Errorf("%dGB: Ignem %v not under HDFS %v", sz, ignem, hdfs)
		}
		if ram > ignem {
			t.Errorf("%dGB: RAM %v above Ignem %v", sz, ram, ignem)
		}
	}
	// The inserted 10s hurts at 1 GB (paper: Ignem+10s is ~20% worse
	// than HDFS there).
	if r.Durations["Ignem+10s"][1] <= r.Durations["HDFS"][1] {
		t.Error("Ignem+10s should lose at 1 GB")
	}
	if !strings.Contains(r.Render(), "Fig 8") {
		t.Error("render missing caption")
	}
}

func TestHiveExperimentShape(t *testing.T) {
	queries := hive.Catalog()[:2]
	// Shrink the catalog inputs for a quick test.
	for i := range queries {
		queries[i].InputBytes /= 2
	}
	r, err := RunHive(HiveConfig{Queries: queries, Nodes: 4, Seed: 6, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if r.Durations[cluster.ModeHDFS][q.Name] <= 0 {
			t.Errorf("query %s missing HDFS duration", q.Name)
		}
		if r.Durations[cluster.ModeIgnem][q.Name] > r.Durations[cluster.ModeHDFS][q.Name] {
			t.Errorf("query %s: Ignem slower than HDFS", q.Name)
		}
	}
	if !strings.Contains(r.Render(), "Fig 9") {
		t.Error("render missing caption")
	}
	// The CSV export: one row per (query, config).
	paths, err := r.WriteData(t.TempDir())
	if err != nil || len(paths) != 1 || filepath.Base(paths[0]) != "fig9_hive.csv" {
		t.Fatalf("hive export: %v %v", paths, err)
	}
	lines := csvLines(t, paths[0])
	if lines[0] != "query,input_gb,config,seconds" || len(lines) != 1+len(queries)*len(r.Durations) {
		t.Errorf("fig9 csv: header %q, %d rows, want %d", lines[0], len(lines)-1, len(queries)*len(r.Durations))
	}
}

func TestRegistryCoversAllExperiments(t *testing.T) {
	ids := map[string]bool{}
	for _, s := range All() {
		if s.ID == "" || s.Title == "" || s.Run == nil {
			t.Errorf("incomplete spec: %+v", s)
		}
		if ids[s.ID] {
			t.Errorf("duplicate ID %s", s.ID)
		}
		ids[s.ID] = true
	}
	// Every paper artifact is reachable through some experiment.
	for _, want := range []string{"fig1-2", "fig3-4", "swim", "table3", "fig8", "fig9"} {
		if !ids[want] {
			t.Errorf("registry missing %s", want)
		}
	}
	if _, ok := Find("fig8"); !ok {
		t.Error("Find failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find matched a bogus ID")
	}
}

// TestEveryExperimentHasAGolden keeps the registry and the committed
// goldens in step without running anything: each ID has a
// testdata/<id>.golden, and no golden exists for an ID the registry
// lacks.
func TestEveryExperimentHasAGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, f := range files {
		have[strings.TrimSuffix(filepath.Base(f), ".golden")] = true
	}
	for _, s := range All() {
		if !have[s.ID] {
			t.Errorf("experiment %s has no testdata/%s.golden (run make golden)", s.ID, s.ID)
		}
		delete(have, s.ID)
	}
	for id := range have {
		t.Errorf("testdata/%s.golden matches no registry experiment", id)
	}
}

func TestMediaSensitivityShape(t *testing.T) {
	r, err := RunMediaSensitivity(MediaSensitivityConfig{InputBytes: 2 << 30, Nodes: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// On HDD the ordering is strict; on SSD the job is nearly
	// compute-bound, so Ignem must only not hurt (within 5% noise).
	hddD := r.Durations["hdd"]
	if !(hddD[cluster.ModeInputsInRAM] <= hddD[cluster.ModeIgnem] &&
		hddD[cluster.ModeIgnem] < hddD[cluster.ModeHDFS]) {
		t.Errorf("hdd ordering violated: %v", hddD)
	}
	ssdD := r.Durations["ssd"]
	if float64(ssdD[cluster.ModeIgnem]) > 1.05*float64(ssdD[cluster.ModeHDFS]) {
		t.Errorf("ssd: Ignem hurts: %v", ssdD)
	}
	// SSD is a faster baseline, so the absolute gap shrinks but the
	// ordering holds (the paper's §II-B point).
	hddGap := r.Durations["hdd"][cluster.ModeHDFS] - r.Durations["hdd"][cluster.ModeIgnem]
	ssdGap := r.Durations["ssd"][cluster.ModeHDFS] - r.Durations["ssd"][cluster.ModeIgnem]
	if ssdGap > hddGap {
		t.Errorf("SSD gap %v exceeds HDD gap %v", ssdGap, hddGap)
	}
	if !strings.Contains(r.Render(), "SSD") {
		t.Error("render missing caption")
	}
}

func TestWriteDataExportsCSV(t *testing.T) {
	dir := t.TempDir()
	r, err := RunSort(SortConfig{InputBytes: 1 << 30, Nodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := r.WriteData(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("paths = %v", paths)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 || lines[0] != "config,seconds" {
		t.Errorf("csv:\n%s", data)
	}

	tr := RunTraceAnalysis(gtrace.Config{Servers: 4, Duration: time.Hour, Seed: 2})
	paths, err = tr.WriteData(dir)
	if err != nil || len(paths) != 2 {
		t.Fatalf("trace export: %v %v", paths, err)
	}
	m, err := RunMedia(MediaConfig{Nodes: 2, BlocksPerNode: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if paths, err = m.WriteData(dir); err != nil || len(paths) != 2 {
		t.Fatalf("media export: %v %v", paths, err)
	}
	w, err := RunWordcount(WordcountConfig{SizesGB: []int{1}, Nodes: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if paths, err = w.WriteData(dir); err != nil || len(paths) != 1 {
		t.Fatalf("wordcount export: %v %v", paths, err)
	}
}

func TestBaselineShape(t *testing.T) {
	r, err := RunBaseline(BaselineConfig{
		Nodes:          4,
		Seed:           10,
		SinglyReadJobs: 4,
		JobInputBytes:  256 << 20,
		Iterations:     3,
		IterInputBytes: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	// (a) Hot caching is useless for singly-read inputs (within 3%);
	// Ignem is not.
	hdfs := r.SinglyRead[cluster.ModeHDFS]
	hot := r.SinglyRead[cluster.ModeHotCache]
	ign := r.SinglyRead[cluster.ModeIgnem]
	if float64(hot) < 0.97*float64(hdfs) {
		t.Errorf("hot cache helped singly-read data: %v vs %v", hot, hdfs)
	}
	if ign >= hdfs {
		t.Errorf("Ignem did not help singly-read data: %v vs %v", ign, hdfs)
	}
	// (b) Only Ignem fixes the iterative job's cold first pass; both
	// beat HDFS on later passes.
	if r.IterFirst[cluster.ModeIgnem] >= r.IterFirst[cluster.ModeHotCache] {
		t.Errorf("Ignem 1st pass %v not under hot-cache 1st pass %v",
			r.IterFirst[cluster.ModeIgnem], r.IterFirst[cluster.ModeHotCache])
	}
	if r.IterLater[cluster.ModeHotCache] >= r.IterLater[cluster.ModeHDFS] {
		t.Error("hot cache did not help later passes")
	}
	if r.IterLater[cluster.ModeIgnem] >= r.IterLater[cluster.ModeHDFS] {
		t.Error("Ignem did not help later passes")
	}
	if !strings.Contains(r.Render(), "Baseline") {
		t.Error("render missing caption")
	}
}
