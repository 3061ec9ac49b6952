package main

import "testing"

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {99, 0}, // not even p90 has ten samples above it
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10000, 99.9}, {99999, 99.9},
		{100000, 99.99}, {5000000, 99.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5},
	} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	steady := func(v float64, better string) Summary {
		return Summary{Value: v, Q1: v * 0.99, Median: v, Q3: v * 1.01, Better: better, Bound: 0.10}
	}
	noisy := Summary{Value: 100, Q1: 80, Median: 100, Q3: 120, Better: higher, Bound: 0.10}
	for _, tc := range []struct {
		name string
		a, b Summary
		want string
	}{
		{"same", steady(100, higher), steady(100, higher), verdictOK},
		{"throughput up", steady(100, higher), steady(130, higher), verdictOK},
		{"throughput down within bound", steady(100, higher), steady(92, higher), verdictOK},
		{"throughput down past bound", steady(100, higher), steady(85, higher), verdictRegressed},
		{"latency up past bound", steady(100, lower), steady(115, lower), verdictRegressed},
		{"latency down", steady(100, lower), steady(50, lower), verdictOK},
		{"spread wider than bound", noisy, steady(100, higher), verdictUnresolved},
		{"spread wider than bound on b", steady(100, higher), noisy, verdictUnresolved},
	} {
		if _, got := verdict(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestSideSummaryUsesRunToRunSpread(t *testing.T) {
	run := func(v float64) RunRecord {
		rec := WorkloadRecord{Workload: wlScanCold}
		rec.addSegments("ops_per_s", []float64{v * 0.5, v, v * 1.5}) // noisy segments
		return RunRecord{Workloads: []WorkloadRecord{rec}}
	}
	one := side{run(100)}
	if m, _, ok := one.summary(wlScanCold, false, "ops_per_s"); !ok || m.Value != 100 || m.Q1 != 75 || m.Q3 != 125 {
		t.Errorf("one run: %+v, want its own segment quartiles", m)
	}
	many := side{run(98), run(100), run(102), run(104), run(96)}
	m, _, ok := many.summary(wlScanCold, false, "ops_per_s")
	if !ok || m.Value != 100 || m.Q1 != 98 || m.Q3 != 102 || m.Samples != 5 {
		t.Errorf("five runs: %+v, want the median and quartiles of the runs' values", m)
	}
	if _, _, ok := many.summary(wlPaperSim, false, "ops_per_s"); ok {
		t.Error("found a metric of a workload that never ran")
	}
}
