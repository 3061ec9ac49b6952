package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func seriesOf(vals ...float64) *Series {
	var s Series
	for _, v := range vals {
		s.Add(v)
	}
	return &s
}

func TestSeriesBasics(t *testing.T) {
	s := seriesOf(4, 1, 3, 2, 5)
	if got := s.Len(); got != 5 {
		t.Errorf("Len = %d", got)
	}
	if got := s.Mean(); got != 3 {
		t.Errorf("Mean = %v", got)
	}
	if got := s.Median(); got != 3 {
		t.Errorf("Median = %v", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("Percentile(0) = %v", got)
	}
	if got := s.Max(); got != 5 {
		t.Errorf("Max = %v", got)
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Median() != 0 || s.Percentile(0) != 0 || s.Max() != 0 {
		t.Error("empty series should report zeros")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	s := seriesOf(0, 10)
	cases := []struct{ p, want float64 }{
		{0, 0}, {25, 2.5}, {50, 5}, {75, 7.5}, {100, 10}, {-5, 0}, {200, 10},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestAddDuration(t *testing.T) {
	var s Series
	s.AddDuration(1500 * time.Millisecond)
	if got := s.Mean(); got != 1.5 {
		t.Errorf("AddDuration mean = %v", got)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, ps []float64) bool {
		var s Series
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(v)
		}
		if s.Len() == 0 {
			return true
		}
		clean := make([]float64, 0, len(ps))
		for _, p := range ps {
			if !math.IsNaN(p) {
				clean = append(clean, math.Mod(math.Abs(p), 100))
			}
		}
		sort.Float64s(clean)
		prev := math.Inf(-1)
		for _, p := range clean {
			v := s.Percentile(p)
			if v < prev || v < s.Percentile(0) || v > s.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{Caption: "TABLE I", Header: []string{"config", "duration (s)", "speedup"}}
	tbl.AddRow("HDFS", "14.4", "")
	tbl.AddRow("Ignem", "12.7", "12%")
	out := tbl.String()
	for _, want := range []string{"TABLE I", "config", "Ignem", "12%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // caption, header, rule, 2 rows
		t.Errorf("table has %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestHistogramRendering(t *testing.T) {
	s := seriesOf(0.001, 0.01, 0.01, 0.1, 1, 10)
	out := Histogram("Fig 1a", s, 5)
	if !strings.Contains(out, "Fig 1a (n=6)") {
		t.Errorf("missing caption: %s", out)
	}
	if strings.Count(out, "\n") != 6 { // caption + 5 buckets
		t.Errorf("wrong bucket count:\n%s", out)
	}
	// All samples accounted for.
	total := 0
	for _, line := range strings.Split(strings.TrimSpace(out), "\n")[1:] {
		fields := strings.Fields(strings.NewReplacer("[", " ", ",", " ", ")", " ").Replace(line))
		if len(fields) >= 3 {
			var n int
			if _, err := fmt.Sscan(fields[2], &n); err == nil {
				total += n
			}
		}
	}
	if total != 6 {
		t.Errorf("histogram lost samples: %d of 6\n%s", total, out)
	}
}

func TestRenderCDF(t *testing.T) {
	out := RenderCDF("Fig 2", 5, map[string]*Series{
		"hdd": seriesOf(1, 2, 3),
		"ram": seriesOf(0.1, 0.2, 0.3),
	})
	if !strings.Contains(out, "hdd") || !strings.Contains(out, "ram") {
		t.Errorf("missing labels:\n%s", out)
	}
	if strings.Count(out, "\n") != 7 { // caption + header + 5 points
		t.Errorf("wrong line count:\n%s", out)
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart("Fig 5", "%", []BarEntry{{"small", 8.8}, {"large", 25}})
	if !strings.Contains(out, "small") || !strings.Contains(out, "25") {
		t.Errorf("bar chart missing entries:\n%s", out)
	}
}

func TestHistogramEmptyAndDegenerate(t *testing.T) {
	var empty Series
	out := Histogram("empty", &empty, 5)
	if !strings.Contains(out, "(n=0)") {
		t.Errorf("empty histogram: %q", out)
	}
	// All-equal samples must not divide by zero.
	same := seriesOf(2, 2, 2)
	out = Histogram("same", same, 4)
	if !strings.Contains(out, "(n=3)") {
		t.Errorf("degenerate histogram:\n%s", out)
	}
	if Histogram("none", same, 0) == "" {
		t.Error("zero buckets should still render the caption")
	}
}

func TestBarChartEmptyAndZero(t *testing.T) {
	if out := BarChart("none", "s", nil); !strings.Contains(out, "none") {
		t.Errorf("empty chart: %q", out)
	}
	out := BarChart("zeros", "s", []BarEntry{{"a", 0}})
	if !strings.Contains(out, "a") {
		t.Errorf("zero chart: %q", out)
	}
}

func TestSeriesValuesIsCopy(t *testing.T) {
	s := seriesOf(3, 1, 2)
	vals := s.Values()
	vals[0] = 99
	if s.Percentile(0) == 99 {
		t.Error("Values returned internal storage")
	}
}
