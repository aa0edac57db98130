// Package stats provides the small descriptive-statistics toolkit used by
// the evaluation harness: moments, percentiles, box-and-whisker
// summaries, and empirical CDFs (for the §5 "what SchedInspector learns"
// analysis).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the sample standard deviation of xs.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between order statistics. It does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Box is a five-number box-and-whisker summary plus the mean, matching the
// box plots in Figures 8, 10 and 12 of the paper.
type Box struct {
	Min, Q1, Median, Q3, Max, Mean float64
	N                              int
}

// Summarize computes the box summary of xs.
func Summarize(xs []float64) Box {
	if len(xs) == 0 {
		return Box{}
	}
	return Box{
		Min:    Percentile(xs, 0),
		Q1:     Percentile(xs, 25),
		Median: Percentile(xs, 50),
		Q3:     Percentile(xs, 75),
		Max:    Percentile(xs, 100),
		Mean:   Mean(xs),
		N:      len(xs),
	}
}

// String renders the box compactly for report tables.
func (b Box) String() string {
	return fmt.Sprintf("n=%d mean=%.2f [min=%.2f q1=%.2f med=%.2f q3=%.2f max=%.2f]",
		b.N, b.Mean, b.Min, b.Q1, b.Median, b.Q3, b.Max)
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	xs []float64 // sorted
}

// NewCDF builds an empirical CDF from observations (copied and sorted).
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{xs: s}
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.xs) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.xs, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.xs))
}

// Quantile returns the q-th quantile (0..1).
func (c *CDF) Quantile(q float64) float64 {
	if len(c.xs) == 0 {
		return 0
	}
	return Percentile(c.xs, q*100)
}

// N returns the number of observations in the CDF.
func (c *CDF) N() int { return len(c.xs) }
