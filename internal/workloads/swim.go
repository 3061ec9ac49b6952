// Package workloads generates the paper's evaluation workloads: the
// SWIM Facebook-derived trace (scaled as in §IV-B1), input corpora for
// the standalone wordcount and sort jobs, and a loader for real
// SWIM-format trace files.
package workloads

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Job is one trace entry: arrival offset plus the input/shuffle/output
// sizes that SWIM traces report.
type Job struct {
	Name         string
	Arrival      time.Duration
	InputBytes   int64
	ShuffleBytes int64
	OutputBytes  int64
}

// The SWIM size bins of the paper's scaled setup: 85% of jobs read at
// most 64 MB, most of the rest at most 512 MB, and a heavy tail reaches
// 24 GB.
const (
	swimSmallFraction = 0.85
	swimSmallMax      = 64 << 20
	swimMediumMax     = 512 << 20
	swimLargeMax      = 24 << 30
)

// SwimConfig controls the synthetic SWIM workload. The defaults match
// the paper's scaled setup: 200 jobs totalling 170 GB of input.
type SwimConfig struct {
	Jobs            int
	TotalInputBytes int64
	// MeanInterarrival is the mean gap between job submissions (the
	// paper halves the trace's inter-arrival times).
	MeanInterarrival time.Duration
	Seed             int64
}

func (c *SwimConfig) setDefaults() {
	if c.Jobs <= 0 {
		c.Jobs = 200
	}
	if c.TotalInputBytes <= 0 {
		c.TotalInputBytes = 170 << 30
	}
	if c.MeanInterarrival <= 0 {
		c.MeanInterarrival = 4 * time.Second
	}
}

// GenerateSwim synthesizes a SWIM-like workload matching the published
// marginals: the size-bin fractions, the heavy tail, and the total input
// volume (the large bin is scaled so the total comes out exactly).
func GenerateSwim(cfg SwimConfig) []Job {
	cfg.setDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	nSmall := int(float64(cfg.Jobs) * swimSmallFraction)
	nMedium := (cfg.Jobs - nSmall) * 2 / 3
	nLarge := cfg.Jobs - nSmall - nMedium
	if nLarge < 1 {
		nLarge = 1
		nSmall--
	}

	jobs := make([]Job, 0, cfg.Jobs)
	var smallMedSum int64
	for i := 0; i < nSmall; i++ {
		size := logUniform(rng, 1<<20, swimSmallMax)
		smallMedSum += size
		jobs = append(jobs, Job{InputBytes: size})
	}
	for i := 0; i < nMedium; i++ {
		size := logUniform(rng, swimSmallMax+1, swimMediumMax)
		smallMedSum += size
		jobs = append(jobs, Job{InputBytes: size})
	}
	// Draw the large bin, then scale it so the workload totals exactly
	// TotalInputBytes while the biggest job stays near swimLargeMax.
	largeSizes := make([]int64, nLarge)
	var largeSum int64
	var largest int64
	for i := range largeSizes {
		largeSizes[i] = logUniform(rng, swimMediumMax+1, swimLargeMax)
		largeSum += largeSizes[i]
		if largeSizes[i] > largest {
			largest = largeSizes[i]
		}
	}
	want := cfg.TotalInputBytes - smallMedSum
	if want > 0 && largeSum > 0 {
		// Rescale toward the target total, redistributing around the
		// swimLargeMax cap over a few passes (capped jobs stay capped; the
		// shortfall flows to the uncapped ones).
		for pass := 0; pass < 8; pass++ {
			var cur, uncapped int64
			for _, s := range largeSizes {
				cur += s
				if s < swimLargeMax {
					uncapped += s
				}
			}
			missing := want - cur
			if missing <= 0 || uncapped == 0 {
				break
			}
			scale := 1 + float64(missing)/float64(uncapped)
			for i, s := range largeSizes {
				if s >= swimLargeMax {
					continue
				}
				ns := int64(float64(s) * scale)
				if ns > swimLargeMax {
					ns = swimLargeMax
				}
				if ns <= swimMediumMax {
					ns = swimMediumMax + 1
				}
				largeSizes[i] = ns
			}
		}
	}
	for _, s := range largeSizes {
		jobs = append(jobs, Job{InputBytes: s})
	}

	// Shuffle/output shapes: roughly half the jobs are map-only with a
	// small aggregate output; the rest shuffle a substantial fraction
	// (sort-like and join-like jobs).
	for i := range jobs {
		in := jobs[i].InputBytes
		if rng.Float64() < 0.5 {
			jobs[i].ShuffleBytes = 0
			jobs[i].OutputBytes = int64(float64(in) * (0.01 + 0.09*rng.Float64()))
		} else {
			jobs[i].ShuffleBytes = int64(float64(in) * (0.2 + 0.8*rng.Float64()))
			jobs[i].OutputBytes = int64(float64(jobs[i].ShuffleBytes) * (0.1 + 0.4*rng.Float64()))
		}
	}

	// Random submission order, Poisson arrivals.
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	var at time.Duration
	for i := range jobs {
		jobs[i].Name = fmt.Sprintf("swim-%03d", i)
		jobs[i].Arrival = at
		gap := time.Duration(rng.ExpFloat64() * float64(cfg.MeanInterarrival))
		at += gap
	}
	return jobs
}

// logUniform samples log-uniformly in [lo, hi].
func logUniform(rng *rand.Rand, lo, hi int64) int64 {
	if hi <= lo {
		return lo
	}
	l, h := math.Log(float64(lo)), math.Log(float64(hi))
	return int64(math.Exp(l + rng.Float64()*(h-l)))
}

// SizeBin classifies a job by input size the way the paper's Fig 5 bins
// do: "small" (<= 64 MB), "medium" (64-512 MB), "large" (> 512 MB).
func SizeBin(inputBytes int64) string {
	switch {
	case inputBytes <= 64<<20:
		return "small"
	case inputBytes <= 512<<20:
		return "medium"
	default:
		return "large"
	}
}
