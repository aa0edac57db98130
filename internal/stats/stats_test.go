package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got, want := Std(xs), math.Sqrt(32.0/7); math.Abs(got-want) > 1e-12 {
		t.Errorf("Std = %v, want %v", got, want)
	}
}

// welford is an independent one-pass oracle for Mean and Std: Welford's
// streaming recurrence for the mean and the sample standard deviation.
func welford(xs []float64) (mean, std float64) {
	var m2 float64
	for i, x := range xs {
		d := x - mean
		mean += d / float64(i+1)
		m2 += d * (x - mean)
	}
	if len(xs) < 2 {
		return mean, 0
	}
	return mean, math.Sqrt(m2 / float64(len(xs)-1))
}

func TestWelfordAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 7
	}
	mean, std := welford(xs)
	if math.Abs(mean-Mean(xs)) > 1e-9 {
		t.Errorf("mean %v vs %v", mean, Mean(xs))
	}
	if math.Abs(std-Std(xs)) > 1e-9 {
		t.Errorf("std %v vs %v", std, Std(xs))
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	if mean, std := welford(nil); mean != 0 || std != 0 || Mean(nil) != 0 || Std(nil) != 0 {
		t.Error("empty input not zero")
	}
	one := []float64{5}
	if mean, std := welford(one); mean != 5 || std != 0 || Mean(one) != 5 || Std(one) != 0 {
		t.Errorf("single obs: mean %v std %v", Mean(one), Std(one))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// interpolation between order stats
	if got := Percentile([]float64{0, 10}, 50); got != 5 {
		t.Errorf("interp = %v, want 5", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("nil percentile not 0")
	}
	// input must not be reordered
	if xs[0] != 4 {
		t.Error("Percentile mutated input")
	}
}

func TestSummarize(t *testing.T) {
	b := Summarize([]float64{1, 2, 3, 4, 5})
	if b.Min != 1 || b.Max != 5 || b.Median != 3 || b.Mean != 3 || b.N != 5 {
		t.Errorf("bad box: %+v", b)
	}
	if b.String() == "" {
		t.Error("empty String()")
	}
	if z := Summarize(nil); z.N != 0 {
		t.Error("empty summarize not zero")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {9, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); math.Abs(got-cse.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
	if got := c.Quantile(0.5); math.Abs(got-2) > 1e-12 {
		t.Errorf("Quantile(0.5) = %v", got)
	}
	if c.N() != 4 {
		t.Errorf("N = %d", c.N())
	}
}

// Property: CDF At is monotone and bounded for arbitrary inputs.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, probe []float64) bool {
		var clean []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		c := NewCDF(clean)
		sort.Float64s(probe)
		prev := -1.0
		for _, p := range probe {
			if math.IsNaN(p) {
				continue
			}
			v := c.At(p)
			if v < 0 || v > 1 || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: percentile of any non-empty slice lies within [min, max].
func TestPercentileBoundsProperty(t *testing.T) {
	f := func(raw []float64, p uint8) bool {
		var clean []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		v := Percentile(clean, float64(p%101))
		lo, hi := clean[0], clean[0]
		for _, x := range clean {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
