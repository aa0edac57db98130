package expt

import (
	"fmt"
	"io"
	"math"
	"strings"

	"schedinspector/internal/core"
	"schedinspector/internal/explain"
)

// PlotCurves reads the epoch spans of a flight trace recorded during
// training (`schedinspect train -flight out.ftrace`, or its `explain
// -convert` JSONL) and renders the learning curves as ASCII sparklines —
// the quick-look equivalent of the paper's training-curve figures. Only
// the spans are decoded; a .ftrace file's decision records are skipped.
func PlotCurves(w io.Writer, path string) error {
	spans, err := explain.ReadSpansFile(path)
	if err != nil {
		return err
	}
	hist := core.EpochStatsFromSpans(spans)
	if len(hist) == 0 {
		return fmt.Errorf("expt: %s holds no epoch spans; record a training run with schedinspect train -flight", path)
	}
	fmt.Fprintf(w, "learning curves from %s (%d epochs)\n", path, len(hist))
	series := []struct {
		name string
		get  func(core.EpochStats) float64
	}{
		{"mean_reward", func(h core.EpochStats) float64 { return h.MeanReward }},
		{"pct_improvement", func(h core.EpochStats) float64 { return h.MeanPctImprovement }},
		{"rejection_ratio", func(h core.EpochStats) float64 { return h.RejectionRatio }},
		{"entropy", func(h core.EpochStats) float64 { return h.Entropy }},
		{"approx_kl", func(h core.EpochStats) float64 { return h.ApproxKL }},
		{"policy_loss", func(h core.EpochStats) float64 { return h.PolicyLoss }},
		{"value_loss", func(h core.EpochStats) float64 { return h.ValueLoss }},
	}
	for _, s := range series {
		vals := make([]float64, len(hist))
		for i, h := range hist {
			vals[i] = s.get(h)
		}
		fmt.Fprintf(w, "  %-16s %s  first %.4g  last %.4g  min %.4g  max %.4g\n",
			s.name, sparkline(vals, 40), vals[0], vals[len(vals)-1], minOf(vals), maxOf(vals))
	}
	total := 0.0
	for _, h := range hist {
		total += h.Seconds
	}
	fmt.Fprintf(w, "  total training wall-clock: %.1fs (%.2fs/epoch)\n", total, total/float64(len(hist)))
	return nil
}

// sparkline compresses vals into width cells of eight-level bars.
func sparkline(vals []float64, width int) string {
	levels := []rune("▁▂▃▄▅▆▇█")
	if len(vals) < width {
		width = len(vals)
	}
	lo, hi := minOf(vals), maxOf(vals)
	span := hi - lo
	var b strings.Builder
	for c := 0; c < width; c++ {
		// mean of the epochs mapping to this cell
		i0, i1 := c*len(vals)/width, (c+1)*len(vals)/width
		if i1 == i0 {
			i1 = i0 + 1
		}
		var m float64
		for _, v := range vals[i0:i1] {
			m += v
		}
		m /= float64(i1 - i0)
		lvl := 0
		if span > 0 {
			lvl = int((m - lo) / span * 7)
		}
		if lvl < 0 {
			lvl = 0
		}
		if lvl > 7 {
			lvl = 7
		}
		b.WriteRune(levels[lvl])
	}
	return b.String()
}

func minOf(vals []float64) float64 {
	m := math.Inf(1)
	for _, v := range vals {
		m = math.Min(m, v)
	}
	return m
}

func maxOf(vals []float64) float64 {
	m := math.Inf(-1)
	for _, v := range vals {
		m = math.Max(m, v)
	}
	return m
}
