package workloads

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestGenerateSwimMarginals(t *testing.T) {
	jobs := GenerateSwim(SwimConfig{Seed: 1})
	if len(jobs) != 200 {
		t.Fatalf("jobs = %d, want 200", len(jobs))
	}
	var total int64
	var small, medium, large int
	var largest int64
	for _, j := range jobs {
		total += j.InputBytes
		switch SizeBin(j.InputBytes) {
		case "small":
			small++
		case "medium":
			medium++
		default:
			large++
		}
		if j.InputBytes > largest {
			largest = j.InputBytes
		}
	}
	// 85% of jobs read <= 64 MB.
	if frac := float64(small) / 200; math.Abs(frac-0.85) > 0.03 {
		t.Errorf("small fraction = %.2f, want ~0.85", frac)
	}
	// Total ~170 GB (the big-bin rescale may cap the extreme tail).
	if total < 120<<30 || total > 200<<30 {
		t.Errorf("total input = %.1f GB, want ~170 GB", float64(total)/(1<<30))
	}
	// Heavy tail up to ~24 GB.
	if largest < 4<<30 || largest > 24<<30 {
		t.Errorf("largest job = %.1f GB, want a multi-GB tail capped at 24 GB", float64(largest)/(1<<30))
	}
	if medium == 0 || large == 0 {
		t.Errorf("bins: small=%d medium=%d large=%d", small, medium, large)
	}
}

func TestGenerateSwimDeterministic(t *testing.T) {
	a := GenerateSwim(SwimConfig{Seed: 42})
	b := GenerateSwim(SwimConfig{Seed: 42})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs across runs with the same seed", i)
		}
	}
	c := GenerateSwim(SwimConfig{Seed: 43})
	same := true
	for i := range a {
		if a[i].InputBytes != c[i].InputBytes {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestGenerateSwimArrivalsMonotone(t *testing.T) {
	jobs := GenerateSwim(SwimConfig{Seed: 2})
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Arrival < jobs[i-1].Arrival {
			t.Fatal("arrivals not monotone")
		}
	}
}

func TestSizeBin(t *testing.T) {
	cases := []struct {
		bytes int64
		want  string
	}{
		{1 << 20, "small"}, {64 << 20, "small"}, {65 << 20, "medium"},
		{512 << 20, "medium"}, {513 << 20, "large"}, {24 << 30, "large"},
	}
	for _, c := range cases {
		if got := SizeBin(c.bytes); got != c.want {
			t.Errorf("SizeBin(%d) = %s, want %s", c.bytes, got, c.want)
		}
	}
}

// Property: generated totals and bins hold across seeds.
func TestGenerateSwimProperty(t *testing.T) {
	f := func(seed int64) bool {
		jobs := GenerateSwim(SwimConfig{Jobs: 100, TotalInputBytes: 20 << 30, Seed: seed})
		if len(jobs) != 100 {
			return false
		}
		for _, j := range jobs {
			if j.InputBytes <= 0 || j.ShuffleBytes < 0 || j.OutputBytes < 0 {
				return false
			}
		}
		return sort.SliceIsSorted(jobs, func(i, k int) bool { return jobs[i].Arrival < jobs[k].Arrival })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestGenerateText(t *testing.T) {
	text := GenerateText(7, 10000)
	if len(text) != 10000 {
		t.Fatalf("len = %d", len(text))
	}
	words := strings.Fields(string(text))
	if len(words) < 1000 {
		t.Errorf("only %d words", len(words))
	}
	// Deterministic.
	if !bytes.Equal(text, GenerateText(7, 10000)) {
		t.Error("not deterministic")
	}
	// Zipf skew: "the" should be among the most common.
	counts := map[string]int{}
	for _, w := range words {
		counts[w]++
	}
	if counts["the"] < counts["escrow"] {
		t.Error("vocabulary skew missing")
	}
}
