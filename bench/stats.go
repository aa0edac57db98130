package main

import "schedinspector/internal/stats"

// The end-to-end timings are medians of timings scaled to the reference
// speed (calib.go): per segment of the window on the serve workloads, per op
// on the workloads made of blocks of identical work.
//
// No tail latency is an end-to-end metric. Issue 12 asks that a metric that
// cannot meet its bound be demoted to per-layer, and the inspect tail cannot:
// the p99 of a quarter-second segment spread by 0.23 and 0.30 of its median
// in the driver's two sets of ten runs of serve-shallow, because the slowest
// requests are the ones the vCPU was descheduled under, which no calibration
// reading predicts. The p99 is the per-layer serve.inspect_p99_us.

// median is the 50th percentile; stats.Percentile interpolates, so an even
// count averages the two middle samples.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// medianOfKinds takes op times in run order from a pass made of whole blocks
// of kinds ops each, where op k of every block does identical work, and
// returns per kind the median of its repeats.
func medianOfKinds(secs []float64, kinds int) []float64 {
	meds := make([]float64, 0, kinds)
	for k := 0; k < kinds && k < len(secs); k++ {
		var repeats []float64
		for i := k; i < len(secs); i += kinds {
			repeats = append(repeats, secs[i])
		}
		meds = append(meds, median(repeats))
	}
	return meds
}

// opTimes are the op times of a pass in run order, in seconds: as measured,
// and scaled to the reference speed by the calibration readings taken around
// each (calib.go).
type opTimes struct{ raw, scaled []float64 }

func (t *opTimes) add(secs, calBefore, calAfter float64) {
	t.raw = append(t.raw, secs)
	t.scaled = append(t.scaled, atRefSpeed(secs, calBefore, calAfter))
}
