package main

import (
	"math"
	"sort"
)

// quantile interpolates the q-quantile (q in [0,1]) of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailPercentiles are the candidates of the tail rule, highest first,
// each with the share of samples beyond it as "one in oneIn".
var tailPercentiles = []struct {
	p     float64
	oneIn int
}{{99.99, 10000}, {99.9, 1000}, {99, 100}, {95, 20}, {90, 10}}

// tailPercentile picks the highest candidate percentile that still has
// at least ten samples beyond it, so the reported tail is never one or
// two outliers. It returns 0 when even p90 has fewer than ten samples
// above it (n < 100): the median is then all the sample supports.
func tailPercentile(n int) float64 {
	for _, c := range tailPercentiles {
		if n >= 10*c.oneIn {
			return c.p
		}
	}
	return 0
}

// spreadOf is the inter-quartile distance as a share of the median: the
// run-to-run (or segment-to-segment) noise a bound is compared against.
func spreadOf(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}
