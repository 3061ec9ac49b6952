package experiments

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// The experiments run once each, at paper scale, in
// TestExperimentsMatchGoldens, which checks their goldens, their claims
// and their exports. The shape tests here assert the paper's qualitative
// shapes, and what a run must uphold beyond its claims, on those same
// runs (paperRun); the other tests run no experiment.

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

func TestRegistryCoversAllExperiments(t *testing.T) {
	ids := map[string]bool{}
	for _, s := range All() {
		if s.ID == "" || s.Title == "" || s.Run == nil || len(s.Claims) == 0 {
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

// TestClaimVerdicts pins the one verdict rule at its band edges: a value
// claim's measured/paper ratio within 1.25x either way matches, within
// 2x is close, and further off differs; an ordering holds only when its
// values rise strictly.
func TestClaimVerdicts(t *testing.T) {
	var r Result = (*SortResult)(nil)
	cases := []struct {
		paper float64
		vals  []float64
		want  Verdict
	}{
		{10, []float64{10}, Match},
		{10, []float64{12.5}, Match},
		{10, []float64{8}, Match},
		{10, []float64{12.6}, Close},
		{10, []float64{7.9}, Close},
		{10, []float64{20}, Close},
		{10, []float64{5}, Close},
		{10, []float64{20.1}, Differs},
		{10, []float64{4.9}, Differs},
		{10, []float64{-3}, Differs},
		{0, []float64{1, 2, 3}, Holds},
		{0, []float64{1, 2, 2}, Fails},
		{0, []float64{3, 2}, Fails},
	}
	for _, tc := range cases {
		c := Claim{Paper: tc.paper, Format: "%g", Measure: func(Result) []float64 { return tc.vals }}
		if measured, v := c.Check(r); v != tc.want {
			t.Errorf("paper %g, measured %s: verdict %s, want %s", tc.paper, measured, v, tc.want)
		}
	}
}

func TestMediaExperimentShape(t *testing.T) {
	t.Parallel()
	r := paperRun[*MediaResult](t, "fig1-2")
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
	t.Parallel()
	r := paperRun[*TraceResult](t, "fig3-4")
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
	t.Parallel()
	r := paperRun[*SwimResult](t, "swim")
	hdfs := r.Modes[cluster.ModeHDFS]
	ignem := r.Modes[cluster.ModeIgnem]
	ram := r.Modes[cluster.ModeInputsInRAM]

	if hdfs.JobDurations.Len() != r.Config.Jobs || ignem.JobDurations.Len() != r.Config.Jobs {
		t.Fatalf("job counts: hdfs=%d ignem=%d, want %d", hdfs.JobDurations.Len(), ignem.JobDurations.Len(), r.Config.Jobs)
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
	// The paper policy charges its pins to the master's tier ledger too,
	// and every charge is released once the last job is done.
	if tc := ignem.Tiers; tc.PromotionsToRAM == 0 || tc.RAMUsedBytes != 0 || tc.SSDUsedBytes != 0 {
		t.Errorf("tier ledger after the last job: %d RAM promotions, RAM %d and SSD %d bytes still charged",
			tc.PromotionsToRAM, tc.RAMUsedBytes, tc.SSDUsedBytes)
	}
	// The hypothetical scheme holds at least as much memory as Ignem.
	if r.HypotheticalMemory.Mean() < ignem.MemoryPerServer.Mean() {
		t.Errorf("hypothetical %.0f below Ignem %.0f",
			r.HypotheticalMemory.Mean(), ignem.MemoryPerServer.Mean())
	}
	// Render is every table and figure, in the paper's order.
	out, at := r.Render(), 0
	for _, part := range []string{"Table I", "Fig 5", "Table II", "Fig 6", "Fig 7", "Ablation §IV-C5"} {
		i := strings.Index(out[at:], part+" — ")
		if i < 0 {
			t.Fatalf("render lacks %s after offset %d", part, at)
		}
		at += i
	}
}

func TestSortExperimentShape(t *testing.T) {
	t.Parallel()
	r := paperRun[*SortResult](t, "table3")
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
	t.Parallel()
	r := paperRun[*WordcountResult](t, "fig8")
	for _, sz := range wordcountSizesGB {
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
	t.Parallel()
	r := paperRun[*HiveResult](t, "fig9")
	for _, q := range hiveQueries() {
		if r.Durations[cluster.ModeHDFS][q] <= 0 {
			t.Errorf("query %s missing HDFS duration", q)
		}
		if r.Durations[cluster.ModeIgnem][q] > r.Durations[cluster.ModeHDFS][q] {
			t.Errorf("query %s: Ignem slower than HDFS", q)
		}
	}
	if !strings.Contains(r.Render(), "Fig 9") {
		t.Error("render missing caption")
	}
}

func TestMediaSensitivityShape(t *testing.T) {
	t.Parallel()
	r := paperRun[*MediaSensitivityResult](t, "media")
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
	hddGap := hddD[cluster.ModeHDFS] - hddD[cluster.ModeIgnem]
	ssdGap := ssdD[cluster.ModeHDFS] - ssdD[cluster.ModeIgnem]
	if ssdGap > hddGap {
		t.Errorf("SSD gap %v exceeds HDD gap %v", ssdGap, hddGap)
	}
	if !strings.Contains(r.Render(), "SSD") {
		t.Error("render missing caption")
	}
}

func TestBaselineShape(t *testing.T) {
	t.Parallel()
	r := paperRun[*BaselineResult](t, "baseline")
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

// TestLadderShape pins what the HDD→SSD→RAM ladder is for: when RAM
// holds a quarter of the working set, the paper policy leaves the rest
// on contended disk while the ladder parks it on flash, and the tail of
// the task-time distribution shows it. The bar is p99 at least 1.2x
// better than pin-in-RAM; both times are virtual, so neither the host
// nor the order in which same-instant events run can flip the verdict.
// The ratio means something only if the baseline ran out of RAM and the
// ladder used both of its rungs; and once every job is done, the
// master's tier ledger holds no charge.
func TestLadderShape(t *testing.T) {
	t.Parallel()
	const bar = 1.2
	r := paperRun[*LadderResult](t, "ladder")
	pin, ladder := r.PinRAM, r.Ladder
	if ratio := p99(pin) / p99(ladder); p99(ladder) <= 0 || ratio < bar {
		t.Errorf("ladder p99 task time %.3fs vs pin-RAM %.3fs: %.2fx, want at least %.1fx", p99(ladder), p99(pin), ratio, bar)
	}
	if pin.Tiers.BudgetRejectsRAM == 0 {
		t.Error("pin-RAM run never hit the RAM budget: nothing was compared")
	}
	if ladder.Tiers.PromotionsToSSD == 0 {
		t.Error("ladder promoted nothing to SSD")
	}
	if ladder.Tiers.ClimbsSSDToRAM == 0 {
		t.Error("ladder climbed nothing from SSD to RAM")
	}
	if ladder.Slave.SSDHits == 0 {
		t.Error("ladder served no read from SSD")
	}
	if ladder.PeakSSDBytes <= 0 || ladder.PeakSSDBytes > ladderSSDBudget {
		t.Errorf("ladder held at most %d bytes on SSD, want some and at most the budget %d", ladder.PeakSSDBytes, ladderSSDBudget)
	}
	for name, run := range map[string]*SwimModeResult{"pin-RAM": pin, "ladder": ladder} {
		if tc := run.Tiers; tc.RAMUsedBytes != 0 || tc.SSDUsedBytes != 0 {
			t.Errorf("%s: tier ledger still charges RAM %d and SSD %d bytes after the last job", name, tc.RAMUsedBytes, tc.SSDUsedBytes)
		}
	}
}
