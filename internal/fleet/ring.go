package fleet

import (
	"math"
	"sort"
	"strings"
	"sync"

	"schedinspector/internal/obs"
)

// History is a bounded ring of timestamped scrapes for one target. All
// derivation — counter rates, windowed histogram quantiles, latest gauge
// values — reads from this ring, so a fleet process holds at most
// cap × targets expositions in memory no matter how long it runs.
type History struct {
	mu   sync.Mutex
	buf  []timedScrape
	head int // next write slot
	n    int // live entries
}

type timedScrape struct {
	unix float64 // scrape completion time, seconds
	s    *Scrape
}

// DefaultHistoryCap bounds each target's ring when the caller does not
// choose: at a 2s poll interval it holds ~4 minutes of history.
const DefaultHistoryCap = 128

// NewHistory returns a ring holding at most capPoints scrapes.
func NewHistory(capPoints int) *History {
	if capPoints < 2 {
		capPoints = 2
	}
	return &History{buf: make([]timedScrape, capPoints)}
}

// Add records a scrape taken at the given unix time (seconds).
func (h *History) Add(unix float64, s *Scrape) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buf[h.head] = timedScrape{unix: unix, s: s}
	h.head = (h.head + 1) % len(h.buf)
	if h.n < len(h.buf) {
		h.n++
	}
}

// Len reports how many scrapes the ring currently holds.
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Latest returns the newest scrape and its unix time, or nil when the
// ring is empty.
func (h *History) Latest() (*Scrape, float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return nil, 0
	}
	ts := h.buf[(h.head-1+len(h.buf))%len(h.buf)]
	return ts.s, ts.unix
}

// window returns the newest scrape and the oldest scrape not older than
// windowSec before it (the whole ring when windowSec <= 0). Both nil
// when fewer than two points exist — no interval, no derivative.
func (h *History) window(windowSec float64) (old, new_ *timedScrape) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n < 2 {
		return nil, nil
	}
	newest := h.buf[(h.head-1+len(h.buf))%len(h.buf)]
	oldest := newest
	for i := 1; i < h.n; i++ {
		ts := h.buf[(h.head-1-i+len(h.buf))%len(h.buf)]
		if windowSec > 0 && newest.unix-ts.unix > windowSec {
			break
		}
		oldest = ts
	}
	if oldest.unix >= newest.unix {
		return nil, nil
	}
	o, n := oldest, newest
	return &o, &n
}

// labelSig is the canonical series identity: sorted k=v pairs. The empty
// label set is "".
func labelSig(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	return b.String()
}

// SeriesRate is a per-series counter derivative over the window, plus
// the latest absolute value.
type SeriesRate struct {
	Labels map[string]string `json:"labels,omitempty"`
	Rate   float64           `json:"rate"`
	Latest float64           `json:"latest"`
}

// counterIncrease applies the Prometheus reset rule: a counter that went
// backwards restarted, so the whole new value is the increase.
func counterIncrease(old, new_ float64) float64 {
	if new_ >= old {
		return new_ - old
	}
	return new_
}

// SeriesRates derives per-series rates for a counter family over the
// window. Series present only in the newest scrape are treated as having
// started from zero. Nil when the family is absent or the ring cannot
// supply an interval.
func (h *History) SeriesRates(family string, windowSec float64) []SeriesRate {
	old, newest := h.window(windowSec)
	if old == nil {
		return nil
	}
	nf := newest.s.Family(family)
	if nf == nil {
		return nil
	}
	dt := newest.unix - old.unix
	oldVals := make(map[string]float64)
	if of := old.s.Family(family); of != nil {
		for _, sm := range of.Samples {
			oldVals[labelSig(sm.Labels)] = sm.Value
		}
	}
	out := make([]SeriesRate, 0, len(nf.Samples))
	for _, sm := range nf.Samples {
		inc := counterIncrease(oldVals[labelSig(sm.Labels)], sm.Value)
		out = append(out, SeriesRate{Labels: sm.Labels, Rate: inc / dt, Latest: sm.Value})
	}
	return out
}

// CounterRate sums the per-series rates of a counter family. NaN when
// the family is absent or no interval exists yet.
func (h *History) CounterRate(family string, windowSec float64) float64 {
	series := h.SeriesRates(family, windowSec)
	if series == nil {
		return math.NaN()
	}
	var sum float64
	for _, s := range series {
		sum += s.Rate
	}
	return sum
}

// CounterDelta sums the per-series increases of a counter family over
// the window (reset-corrected). NaN when underivable.
func (h *History) CounterDelta(family string, windowSec float64) float64 {
	series := h.SeriesRates(family, windowSec)
	if series == nil {
		return math.NaN()
	}
	old, newest := h.window(windowSec)
	if old == nil {
		return math.NaN()
	}
	var sum float64
	for _, s := range series {
		sum += s.Rate * (newest.unix - old.unix)
	}
	return sum
}

// GaugeLatest returns the newest value of a single-series family
// (samples summed when labeled, which is what "depth across shards"
// means anyway). ok is false when the family is missing.
func (h *History) GaugeLatest(family string) (float64, bool) {
	s, _ := h.Latest()
	if s == nil {
		return 0, false
	}
	f := s.Family(family)
	if f == nil || len(f.Samples) == 0 {
		return 0, false
	}
	var sum float64
	for _, sm := range f.Samples {
		sum += sm.Value
	}
	return sum, true
}

// HistQuantile estimates the q-quantile of a histogram family over the
// window from bucket-count deltas, merging all series of the family. A
// counter reset inside the window falls back to the newest cumulative
// buckets (all-time estimate beats garbage). With no interval yet, the
// newest cumulative buckets are used directly. NaN when the family is
// absent or saw no observations in the window.
func (h *History) HistQuantile(family string, q float64, windowSec float64) float64 {
	latest, _ := h.Latest()
	if latest == nil {
		return math.NaN()
	}
	nf := latest.Family(family)
	if nf == nil || len(nf.Histograms) == 0 {
		return math.NaN()
	}
	uppers, cum := mergeHistograms(nf.Histograms)
	old, _ := h.window(windowSec)
	if old != nil {
		if of := old.s.Family(family); of != nil && len(of.Histograms) > 0 {
			ou, ocum := mergeHistograms(of.Histograms)
			if delta, ok := subtractCum(uppers, cum, ou, ocum); ok {
				// In-window estimate; an empty window means no fresh
				// observations, which the caller should see as NaN rather
				// than a stale all-time value.
				return obs.HistQuantile(q, uppers, delta)
			}
		}
	}
	return obs.HistQuantile(q, uppers, cum)
}

// HistSumRate is the rate of a histogram family's _sum over the window
// (merged across series) — for a seconds-valued histogram this is the
// fraction of wall time spent in the measured state. NaN when
// underivable or when the sum went backwards (reset).
func (h *History) HistSumRate(family string, windowSec float64) float64 {
	old, newest := h.window(windowSec)
	if old == nil {
		return math.NaN()
	}
	nf := newest.s.Family(family)
	of := old.s.Family(family)
	if nf == nil || of == nil || len(nf.Histograms) == 0 {
		return math.NaN()
	}
	var oldSum, newSum float64
	for i := range of.Histograms {
		oldSum += of.Histograms[i].Sum
	}
	for i := range nf.Histograms {
		newSum += nf.Histograms[i].Sum
	}
	if newSum < oldSum {
		return math.NaN()
	}
	return (newSum - oldSum) / (newest.unix - old.unix)
}

// mergeHistograms sums the cumulative buckets of every series in a
// family. Series whose bucket layout differs from the first are skipped
// — obs registries give one layout per family, so this only defends
// against foreign expositions.
func mergeHistograms(hs []HistogramSample) (uppers []float64, cum []uint64) {
	uppers, cum = hs[0].Uppers()
	for i := 1; i < len(hs); i++ {
		u2, c2 := hs[i].Uppers()
		if !sameUppers(uppers, u2) {
			continue
		}
		for j := range cum {
			cum[j] += c2[j]
		}
	}
	return uppers, cum
}

func sameUppers(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// subtractCum computes new-old bucket-wise; ok is false on layout
// mismatch or any negative delta (counter reset).
func subtractCum(uppers []float64, newCum []uint64, oldUppers []float64, oldCum []uint64) ([]uint64, bool) {
	if !sameUppers(uppers, oldUppers) || len(newCum) != len(oldCum) {
		return nil, false
	}
	out := make([]uint64, len(newCum))
	for i := range newCum {
		if newCum[i] < oldCum[i] {
			return nil, false
		}
		out[i] = newCum[i] - oldCum[i]
	}
	return out, true
}
