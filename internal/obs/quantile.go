package obs

import "math"

// HistQuantile estimates the q-quantile of a histogram from its cumulative
// bucket counts, the way Prometheus's histogram_quantile() does: find the
// bucket the rank falls in and interpolate linearly inside it. The
// estimator is what the serve handler's scrape-time p50/p99 gauges read,
// so they agree with histogram_quantile() over the same exposed buckets.
//
// uppers are the finite upper bounds, strictly increasing (may be empty).
// cum has len(uppers)+1 entries: cum[i] counts observations <= uppers[i],
// and the final entry is the total count including the implicit +Inf
// bucket. q is clamped to [0, 1].
//
// Conventions match Prometheus: an empty histogram (or malformed cum
// slice) estimates NaN; a rank landing in the +Inf bucket returns the
// highest finite bound (the estimate is a floor, not an extrapolation);
// the first bucket interpolates from zero, or returns its bound outright
// when that bound is not positive (latency-style histograms never are).
func HistQuantile(q float64, uppers []float64, cum []uint64) float64 {
	if len(cum) != len(uppers)+1 || math.IsNaN(q) {
		return math.NaN()
	}
	total := cum[len(cum)-1]
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	for i, ub := range uppers {
		if float64(cum[i]) < rank {
			continue
		}
		lower := 0.0
		var below uint64
		if i > 0 {
			lower = uppers[i-1]
			below = cum[i-1]
		}
		if ub <= 0 && i == 0 {
			return ub
		}
		in := cum[i] - below
		if in == 0 {
			return ub
		}
		return lower + (ub-lower)*(rank-float64(below))/float64(in)
	}
	// The rank lands in the +Inf bucket: the data gives no upper bound, so
	// report the largest bound we can still stand behind.
	if len(uppers) == 0 {
		return math.NaN()
	}
	return uppers[len(uppers)-1]
}

// Buckets returns a consistent snapshot of the histogram's finite upper
// bounds and cumulative counts, with the final count including the
// implicit +Inf bucket — the exact shape HistQuantile consumes. Counts are
// loaded bucket-by-bucket while observations continue, so the snapshot is
// monotone but may trail in-flight Observes, the same guarantee the
// rendered exposition has.
func (h *Histogram) Buckets() (uppers []float64, cum []uint64) {
	uppers = append([]float64(nil), h.upper...)
	cum = make([]uint64, len(h.upper)+1)
	var c uint64
	for i := range h.counts {
		c += h.counts[i].Load()
		cum[i] = c
	}
	cum[len(h.upper)] = c + h.inf.Load()
	return uppers, cum
}

// Quantile estimates the q-quantile of the live histogram via
// HistQuantile. NaN when the histogram has no observations.
func (h *Histogram) Quantile(q float64) float64 {
	uppers, cum := h.Buckets()
	return HistQuantile(q, uppers, cum)
}
