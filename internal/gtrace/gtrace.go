// Package gtrace synthesizes a Google-cluster-style trace and reproduces
// the paper's §II motivation analysis on it: lead-time sufficiency
// (Fig 3) and residual disk bandwidth (Fig 4).
//
// The published statistics the synthesizer is calibrated against:
//
//   - job scheduling delay (lead-time): mean 8.8 s, median 1.8 s;
//   - ~10 tasks running per server at a time, heavy-tailed job IO;
//   - mean server disk utilization ~3.1% over the analyzed day and
//     ~1.3% over the month.
package gtrace

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/metrics"
)

// The synthesizer's geometry and calibration.
const (
	// Servers in the simulated cluster slice: the group the paper plots
	// mean utilization for.
	Servers = 40
	// Duration of the analyzed window: one day.
	Duration = 24 * time.Hour
	// targetUtilization is the mean disk utilization the workload is
	// sized for: the paper's analyzed day.
	targetUtilization = 0.031
	// tasksPerJobMean is the mean task count per job.
	tasksPerJobMean = 8
	// Lead-time (queue delay) lognormal parameters, calibrated to the
	// published mean 8.8s / median 1.8s.
	leadMedian = 1800 * time.Millisecond
	leadSigma  = 1.78
	// Per-job total disk IO lognormal parameters (heavy-tailed).
	readMedian = 150 * time.Millisecond
	readSigma  = 2.0
)

// JobRecord is one synthesized job.
type JobRecord struct {
	// Lead is the queue delay between submission and the first task
	// start (the migration window).
	Lead time.Duration
	// ReadTime is the job's total disk IO time summed over its tasks.
	ReadTime time.Duration
	Tasks    []TaskRecord
}

// TaskRecord is one task's placement and IO footprint.
type TaskRecord struct {
	Server   int
	Start    time.Duration
	Duration time.Duration
	IOTime   time.Duration
}

// Trace is a synthesized cluster trace.
type Trace struct {
	Jobs []JobRecord
}

// Generate synthesizes a trace of Servers servers over Duration, sized
// so the cluster's mean disk utilization matches targetUtilization.
func Generate(seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))

	// Mean per-job IO of the lognormal = median * exp(sigma^2/2).
	meanJobIO := readMedian.Seconds() * math.Exp(readSigma*readSigma/2)
	nJobs := int(targetUtilization * Servers * Duration.Seconds() / meanJobIO)

	t := &Trace{Jobs: make([]JobRecord, 0, nJobs)}
	for i := 0; i < nJobs; i++ {
		submit := time.Duration(rng.Float64() * float64(Duration))
		lead := lognormal(rng, leadMedian, leadSigma)
		readTime := lognormal(rng, readMedian, readSigma)

		nTasks := 1 + rng.Intn(int(2*tasksPerJobMean-1)) // uniform, mean ≈ tasksPerJobMean
		job := JobRecord{Lead: lead, ReadTime: readTime}
		// Split the job's IO across its tasks with random weights.
		weights := make([]float64, nTasks)
		var wsum float64
		for j := range weights {
			weights[j] = rng.ExpFloat64()
			wsum += weights[j]
		}
		for j := 0; j < nTasks; j++ {
			dur := lognormal(rng, 30*time.Second, 1.5)
			io := time.Duration(float64(readTime) * weights[j] / wsum)
			if io > dur {
				io = dur
			}
			job.Tasks = append(job.Tasks, TaskRecord{
				Server:   rng.Intn(Servers),
				Start:    submit + lead,
				Duration: dur,
				IOTime:   io,
			})
		}
		t.Jobs = append(t.Jobs, job)
	}
	return t
}

func lognormal(rng *rand.Rand, median time.Duration, sigma float64) time.Duration {
	return time.Duration(float64(median) * math.Exp(rng.NormFloat64()*sigma))
}

// LeadTimeSufficiency reproduces Fig 3: the CDF of read-time/lead-time
// per job, and the fraction of jobs whose lead-time covers their entire
// read-time (the paper reports 81%).
func (t *Trace) LeadTimeSufficiency() (ratios *metrics.Series, fracSufficient float64) {
	ratios = &metrics.Series{}
	sufficient := 0
	for _, j := range t.Jobs {
		if j.Lead <= 0 {
			continue
		}
		ratio := float64(j.ReadTime) / float64(j.Lead)
		ratios.Add(ratio)
		if ratio <= 1 {
			sufficient++
		}
	}
	if len(t.Jobs) == 0 {
		return ratios, 0
	}
	return ratios, float64(sufficient) / float64(len(t.Jobs))
}

// ServerUtilization reproduces Fig 4: per-server disk utilization
// averaged over fixed windows (the paper uses 5 minutes), with each
// task's IO time spread uniformly over its runtime.
func (t *Trace) ServerUtilization(window time.Duration) [][]float64 {
	nWin := int(Duration/window) + 1
	util := make([][]float64, Servers)
	for s := range util {
		util[s] = make([]float64, nWin)
	}
	for _, j := range t.Jobs {
		for _, task := range j.Tasks {
			if task.Duration <= 0 || task.IOTime <= 0 {
				continue
			}
			// IO density per second of runtime.
			density := task.IOTime.Seconds() / task.Duration.Seconds()
			start := task.Start
			end := min(task.Start+task.Duration, Duration)
			for w := int(start / window); w <= int(end/window) && w < nWin; w++ {
				wStart := time.Duration(w) * window
				wEnd := wStart + window
				overlap := min(end, wEnd) - max(start, wStart)
				if overlap <= 0 {
					continue
				}
				util[task.Server][w] += density * overlap.Seconds() / window.Seconds()
			}
		}
	}
	for s := range util {
		for w := range util[s] {
			if util[s][w] > 1 {
				util[s][w] = 1
			}
		}
	}
	return util
}

// MeanUtilization returns the across-servers, across-windows mean of a
// ServerUtilization grid.
func MeanUtilization(util [][]float64) float64 {
	var sum float64
	var n int
	for _, series := range util {
		for _, u := range series {
			sum += u
			n++
		}
	}
	return sum / float64(n)
}

// MonthProfile models the paper's month-long view: the analyzed day is a
// busy one; daily intensity factors below 1 bring the month mean down to
// roughly 1.3% when the day is 3.1%.
func MonthProfile(seed int64, dayUtil float64) (days []float64, monthMean float64) {
	rng := rand.New(rand.NewSource(seed))
	days = make([]float64, 30)
	for i := range days {
		// Intensity between 0.2 and 1.0 of the analyzed (busy) day.
		f := 0.2 + 0.8*rng.Float64()*rng.Float64()
		days[i] = dayUtil * f
	}
	// Make one day the analyzed day itself.
	days[14] = dayUtil
	var sum float64
	for _, d := range days {
		sum += d
	}
	return days, sum / float64(len(days))
}

// LeadTimeStats returns the mean and median job lead-time, for checking
// calibration against the published 8.8s / 1.8s.
func (t *Trace) LeadTimeStats() (mean, median time.Duration) {
	var s metrics.Series
	for _, j := range t.Jobs {
		s.AddDuration(j.Lead)
	}
	return time.Duration(s.Mean() * float64(time.Second)),
		time.Duration(s.Median() * float64(time.Second))
}
