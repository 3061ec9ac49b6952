// Package metrics collects and summarizes experiment measurements: sample
// series with percentile queries, histograms, CDFs, time-series
// utilization tracks, and plain-text table/figure rendering for the
// benchmark harness.
package metrics

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Series is a concurrency-safe collection of float64 samples.
// The zero value is ready to use.
type Series struct {
	mu     sync.Mutex
	vals   []float64
	sorted bool
}

// Add appends a sample.
func (s *Series) Add(v float64) {
	s.mu.Lock()
	s.vals = append(s.vals, v)
	s.sorted = false
	s.mu.Unlock()
}

// AddDuration appends a duration sample in seconds.
func (s *Series) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// Len reports the number of samples.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vals)
}

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank interpolation, or 0 for an empty series.
func (s *Series) Percentile(p float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.vals) == 0 {
		return 0
	}
	s.sortLocked()
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[len(s.vals)-1]
	}
	rank := p / 100 * float64(len(s.vals)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.vals[lo]
	}
	frac := rank - float64(lo)
	return s.vals[lo]*(1-frac) + s.vals[hi]*frac
}

// Median returns the 50th percentile.
func (s *Series) Median() float64 { return s.Percentile(50) }

// Max returns the largest sample, or 0 for an empty series.
func (s *Series) Max() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.vals) == 0 {
		return 0
	}
	s.sortLocked()
	return s.vals[len(s.vals)-1]
}

// Values returns a copy of the samples in insertion-independent (sorted)
// order.
func (s *Series) Values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sortLocked()
	out := make([]float64, len(s.vals))
	copy(out, s.vals)
	return out
}

func (s *Series) sortLocked() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}
