package fleet

import (
	"fmt"
	"math"
	"testing"
)

// scrapeAt renders a tiny synthetic exposition: one counter, one gauge,
// one histogram whose observations are supplied.
func scrapeAt(t *testing.T, counter float64, gauge float64, histCum []uint64) *Scrape {
	t.Helper()
	exp := "# TYPE test_ops_total counter\n" +
		fmt.Sprintf("test_ops_total{shard=\"a\"} %g\n", counter) +
		fmt.Sprintf("test_ops_total{shard=\"b\"} %g\n", counter/2) +
		"# TYPE test_depth gauge\n" +
		fmt.Sprintf("test_depth %g\n", gauge) +
		"# TYPE test_lat_seconds histogram\n"
	bounds := []string{"0.1", "1", "+Inf"}
	for i, b := range bounds {
		exp += fmt.Sprintf("test_lat_seconds_bucket{le=%q} %d\n", b, histCum[i])
	}
	exp += fmt.Sprintf("test_lat_seconds_sum %g\n", float64(histCum[2])*0.05)
	exp += fmt.Sprintf("test_lat_seconds_count %d\n", histCum[2])
	s, err := ParseProm([]byte(exp))
	if err != nil {
		t.Fatalf("synthetic exposition: %v", err)
	}
	return s
}

func TestHistoryRates(t *testing.T) {
	h := NewHistory(8)
	if !math.IsNaN(h.CounterRate("test_ops_total", 0)) {
		t.Error("rate from empty ring should be NaN")
	}
	h.Add(100, scrapeAt(t, 1000, 5, []uint64{10, 20, 30}))
	if !math.IsNaN(h.CounterRate("test_ops_total", 0)) {
		t.Error("rate from one point should be NaN")
	}
	h.Add(110, scrapeAt(t, 1600, 9, []uint64{10, 40, 50}))

	// shard a: +600 over 10s = 60/s; shard b: +300 over 10s = 30/s.
	if got := h.CounterRate("test_ops_total", 0); math.Abs(got-90) > 1e-9 {
		t.Errorf("CounterRate = %v, want 90", got)
	}
	if got := h.CounterDelta("test_ops_total", 0); math.Abs(got-900) > 1e-9 {
		t.Errorf("CounterDelta = %v, want 900", got)
	}
	if got, ok := h.GaugeLatest("test_depth"); !ok || got != 9 {
		t.Errorf("GaugeLatest = %v,%v", got, ok)
	}
	sr := h.SeriesRates("test_ops_total", 0)
	if len(sr) != 2 {
		t.Fatalf("SeriesRates: %+v", sr)
	}

	// Windowed histogram quantile: 20 new observations, all in (0.1, 1].
	// Median interpolates inside that bucket.
	q := h.HistQuantile("test_lat_seconds", 0.5, 0)
	if math.IsNaN(q) || q <= 0.1 || q > 1 {
		t.Errorf("windowed p50 = %v, want within (0.1, 1]", q)
	}
	// Sum rate: (2.5 - 1.5)/10.
	if got := h.HistSumRate("test_lat_seconds", 0); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("HistSumRate = %v, want 0.1", got)
	}
	if !math.IsNaN(h.CounterRate("nonexistent_total", 0)) {
		t.Error("missing family should be NaN")
	}
}

func TestHistoryCounterReset(t *testing.T) {
	h := NewHistory(8)
	h.Add(100, scrapeAt(t, 1000, 1, []uint64{5, 5, 5}))
	h.Add(110, scrapeAt(t, 40, 1, []uint64{1, 1, 1}))
	// Reset rule: the new value is the whole increase. shard a 40, shard
	// b 20 → 60 over 10s.
	if got := h.CounterRate("test_ops_total", 0); math.Abs(got-6) > 1e-9 {
		t.Errorf("post-reset rate = %v, want 6", got)
	}
	// Histogram reset falls back to the newest cumulative estimate
	// rather than negative deltas.
	if q := h.HistQuantile("test_lat_seconds", 0.5, 0); math.IsNaN(q) {
		t.Error("post-reset quantile should fall back, not NaN")
	}
}

func TestHistoryWindowSelection(t *testing.T) {
	h := NewHistory(16)
	// Counter grows 10/s for 100s; the last 20s it grows 100/s.
	for ts := 0; ts <= 80; ts += 10 {
		h.Add(float64(ts), scrapeAt(t, float64(ts)*10, 0, []uint64{0, 0, 0}))
	}
	h.Add(90, scrapeAt(t, 800+1000, 0, []uint64{0, 0, 0}))
	h.Add(100, scrapeAt(t, 800+2000, 0, []uint64{0, 0, 0}))
	// Full ring: shard a grew 2800 over 100s = 28/s (+half for shard b).
	full := h.CounterRate("test_ops_total", 0)
	// 20s window: shard a grew 2000 over 20s = 100/s (+half).
	recent := h.CounterRate("test_ops_total", 20)
	if math.Abs(full-42) > 1e-9 {
		t.Errorf("full-window rate = %v, want 42", full)
	}
	if math.Abs(recent-150) > 1e-9 {
		t.Errorf("20s-window rate = %v, want 150", recent)
	}
}

func TestHistoryRingBounded(t *testing.T) {
	h := NewHistory(4)
	for i := 0; i < 100; i++ {
		h.Add(float64(i), scrapeAt(t, float64(i), 0, []uint64{0, 0, 0}))
	}
	if h.Len() != 4 {
		t.Fatalf("Len = %d, want 4", h.Len())
	}
	if _, unix := h.Latest(); unix != 99 {
		t.Errorf("latest unix = %v, want 99", unix)
	}
	// Oldest retained point is t=96: full-ring rate spans 3s.
	if got := h.CounterRate("test_ops_total", 0); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("bounded-ring rate = %v, want 1.5", got)
	}
}
