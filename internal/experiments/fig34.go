package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/gtrace"
	"repro/internal/metrics"
)

// TraceResult holds the §II motivation analysis on the synthesized
// Google-style trace (Figs 3 and 4).
type TraceResult struct {
	// Ratios is read-time/lead-time per job.
	Ratios *metrics.Series
	// FracSufficient is the fraction of jobs whose lead-time covers
	// their whole read-time (paper: 81%).
	FracSufficient float64
	LeadMean       time.Duration
	LeadMedian     time.Duration
	// DayMeanUtil is the mean disk utilization over the analyzed day
	// (paper: 3.1%); MonthMeanUtil over the month (paper: 1.3%).
	DayMeanUtil   float64
	MonthMeanUtil float64
	// ServerUtil is the per-server 5-minute-window utilization.
	ServerUtil [][]float64
}

// RunTraceAnalysis synthesizes the trace and reproduces Figs 3 and 4.
func RunTraceAnalysis(seed int64) *TraceResult {
	tr := gtrace.Generate(seed)
	ratios, frac := tr.LeadTimeSufficiency()
	mean, median := tr.LeadTimeStats()
	util := tr.ServerUtilization(5 * time.Minute)
	day := gtrace.MeanUtilization(util)
	_, month := gtrace.MonthProfile(seed+1, day)
	return &TraceResult{
		Ratios:         ratios,
		FracSufficient: frac,
		LeadMean:       mean,
		LeadMedian:     median,
		DayMeanUtil:    day,
		MonthMeanUtil:  month,
		ServerUtil:     util,
	}
}

// Render prints Fig 3, the lead-time sufficiency CDF (paper: 81% of
// jobs), and Fig 4, the disk-utilization view (paper: 40-server mean
// <=5% at all times; day mean 3.1%; month mean 1.3%).
func (r *TraceResult) Render() string {
	var b strings.Builder
	b.WriteString(header("Fig 3 — is lead-time sufficient for migration?"))
	fmt.Fprintf(&b, "job lead-time: mean %.1fs (paper 8.8s), median %.1fs (paper 1.8s)\n",
		r.LeadMean.Seconds(), r.LeadMedian.Seconds())
	b.WriteString(metrics.RenderCDF("CDF of read-time / lead-time", 11,
		map[string]*metrics.Series{"ratio": r.Ratios}))
	fmt.Fprintf(&b, "lead-time >= read-time for %.0f%% of jobs (paper: 81%%)\n", r.FracSufficient*100)

	b.WriteString("\n" + header("Fig 4 — disk bandwidth utilization"))
	meanLine, peak := r.meanLine()
	// Print a coarse timeline (every ~2 hours).
	step := len(meanLine) / 12
	for w := 0; w < len(meanLine); w += step {
		bar := strings.Repeat("#", int(meanLine[w]*400))
		fmt.Fprintf(&b, "t=%5.1fh mean util %5.2f%% %s\n",
			float64(w)*5/60, meanLine[w]*100, bar)
	}
	fmt.Fprintf(&b, "peak of %d-server mean: %.1f%% (paper: <=5%% at all times)\n", len(r.ServerUtil), peak*100)
	fmt.Fprintf(&b, "day mean %.1f%% (paper 3.1%%); month mean %.1f%% (paper 1.3%%)\n",
		r.DayMeanUtil*100, r.MonthMeanUtil*100)
	return b.String()
}

// meanLine is the mean across servers per window (the paper's 40-server
// mean line) and its peak.
func (r *TraceResult) meanLine() (line []float64, peak float64) {
	for w := range r.ServerUtil[0] {
		sum := 0.0
		for s := range r.ServerUtil {
			sum += r.ServerUtil[s][w]
		}
		m := sum / float64(len(r.ServerUtil))
		line = append(line, m)
		peak = max(peak, m)
	}
	return line, peak
}
