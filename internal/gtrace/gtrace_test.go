package gtrace

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"
)

// The tests here share one paper-scale trace, generated once; the
// fig3-4 experiment's claims check the same calibration on the same
// trace against the paper's values.
var paperTrace = sync.OnceValue(func() *Trace { return Generate(1) })

func TestLeadTimeCalibration(t *testing.T) {
	mean, median := paperTrace().LeadTimeStats()
	// Published: mean 8.8s, median 1.8s. Allow sampling slack.
	if median < 1200*time.Millisecond || median > 2700*time.Millisecond {
		t.Errorf("lead median = %v, want ~1.8s", median)
	}
	if mean < 5*time.Second || mean > 15*time.Second {
		t.Errorf("lead mean = %v, want ~8.8s", mean)
	}
}

func TestLeadTimeSufficiencyNear81Percent(t *testing.T) {
	_, frac := paperTrace().LeadTimeSufficiency()
	if frac < 0.74 || frac > 0.9 {
		t.Errorf("lead-time sufficient for %.0f%% of jobs, want ~81%%", frac*100)
	}
}

func TestUtilizationNearTarget(t *testing.T) {
	got := MeanUtilization(paperTrace().ServerUtilization(5 * time.Minute))
	if got < 0.015 || got > 0.06 {
		t.Errorf("mean utilization = %.3f, want ~0.031", got)
	}
}

func TestUtilizationSeriesShape(t *testing.T) {
	util := paperTrace().ServerUtilization(5 * time.Minute)
	if len(util) != Servers {
		t.Fatalf("servers = %d, want %d", len(util), Servers)
	}
	nonZero := 0
	for _, series := range util {
		for _, u := range series {
			if u < 0 || u > 1 {
				t.Fatalf("utilization out of range: %v", u)
			}
			if u > 0 {
				nonZero++
			}
		}
	}
	if nonZero == 0 {
		t.Error("utilization all zero")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := paperTrace(), Generate(1)
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatal("job counts differ")
	}
	for i := range a.Jobs {
		if a.Jobs[i].Lead != b.Jobs[i].Lead || a.Jobs[i].ReadTime != b.Jobs[i].ReadTime {
			t.Fatal("same seed produced different jobs")
		}
	}
}

func TestMonthProfile(t *testing.T) {
	days, monthMean := MonthProfile(1, 0.031)
	if len(days) != 30 {
		t.Fatalf("days = %d", len(days))
	}
	if math.Abs(days[14]-0.031) > 1e-9 {
		t.Errorf("analyzed day = %v, want 0.031", days[14])
	}
	// The month mean is well below the busy day, around the published
	// 1.3%.
	if monthMean >= 0.031 || monthMean < 0.005 {
		t.Errorf("month mean = %.4f, want between 0.005 and 0.031", monthMean)
	}
}

func TestRatiosSeriesMatchesFraction(t *testing.T) {
	ratios, frac := paperTrace().LeadTimeSufficiency()
	vals := ratios.Values()
	below := float64(sort.SearchFloat64s(vals, 1.0)) / float64(len(vals))
	if math.Abs(below-frac) > 0.02 {
		t.Errorf("CDF fraction below 1 = %.3f vs reported %.3f", below, frac)
	}
}

func TestTaskIOWithinDuration(t *testing.T) {
	for _, j := range paperTrace().Jobs {
		for _, task := range j.Tasks {
			if task.IOTime > task.Duration {
				t.Fatal("task IO exceeds its runtime")
			}
			if task.Server < 0 || task.Server >= Servers {
				t.Fatal("bad server index")
			}
		}
	}
}
