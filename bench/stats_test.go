package main

import "testing"

func TestMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	if got := median(xs); got != 5.5 {
		t.Errorf("median(1..10) = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(1,2,3) = %v, want 2", got)
	}
	if median(nil) != 0 {
		t.Error("empty input must give 0")
	}
	if xs[0] != 5 {
		t.Error("median sorted its argument in place")
	}
}

func TestMedianOfKinds(t *testing.T) {
	// Three blocks of two kinds; the second block was disturbed.
	secs := []float64{1.0, 2.0, 1.6, 2.9, 1.1, 1.9}
	got := medianOfKinds(secs, 2)
	if len(got) != 2 || got[0] != 1.1 || got[1] != 2.0 {
		t.Errorf("medianOfKinds = %v, want [1.1 2]", got)
	}
	if got := medianOfKinds([]float64{3}, 4); len(got) != 1 || got[0] != 3 {
		t.Errorf("a short pass must give the kinds it has, got %v", got)
	}
}

func TestSliceRates(t *testing.T) {
	// A one-second segment: 100 completions in every tenth but the third,
	// which a stall left with 10.
	s := segment{secs: 1}
	for slice := 0; slice < segmentSlices; slice++ {
		n := 100
		if slice == 2 {
			n = 10
		}
		for i := 0; i < n; i++ {
			s.done = append(s.done, float64(slice)/10+float64(i)/1000)
		}
	}
	s.done = append(s.done, 1.0) // the op that closed the segment ends on its edge
	rates := s.sliceRates()
	if len(rates) != segmentSlices || rates[0] != 1000 || rates[2] != 100 || rates[9] != 1010 {
		t.Errorf("sliceRates = %v", rates)
	}
	if median(rates) != 1000 {
		t.Errorf("median slice rate = %v, want 1000: the stall must not move it", median(rates))
	}
}

func TestAtRefSpeed(t *testing.T) {
	// A machine running at half the reference speed takes twice as long for
	// the kernel and for the op; a change of speed half-way through the op is
	// met by the mean of the two readings.
	if got := atRefSpeed(2.0, 2*refCal, 2*refCal); got != 1.0 {
		t.Errorf("atRefSpeed at half speed = %v, want 1", got)
	}
	if got := atRefSpeed(1.5, refCal, 2*refCal); got != 1.0 {
		t.Errorf("atRefSpeed across a change of speed = %v, want 1", got)
	}
	var ops opTimes
	ops.add(2.0, 2*refCal, 2*refCal)
	if len(ops.raw) != 1 || ops.raw[0] != 2.0 || ops.scaled[0] != 1.0 {
		t.Errorf("opTimes.add kept %+v", ops)
	}
}

func TestCalibrate(t *testing.T) {
	// The reading is a positive time of the order of refCal on any machine
	// this runs on, and repeats.
	a, b := calibrate(), calibrate()
	for _, c := range []float64{a, b} {
		if c < refCal/20 || c > refCal*20 {
			t.Errorf("calibrate() = %v s, refCal is %v s", c, refCal)
		}
	}
	if a > 3*b || b > 3*a {
		t.Errorf("two readings in a row differ threefold: %v, %v", a, b)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "handler", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "decode", StartNS: 200, EndNS: 230, Parent: 0}, // timed outside the parent's interval
		{Name: "explain", StartNS: 300, EndNS: 340, Parent: 0},
		{Name: "features", StartNS: 400, EndNS: 410, Parent: 2},
		{Name: "orphan", StartNS: 0, EndNS: 5, Parent: -1},
	}
	want := []int64{30, 30, 30, 10, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	if d := durationsOf(spans, "explain"); len(d) != 1 || d[0] != 40 {
		t.Errorf("durationsOf(explain) = %v", d)
	}
}

func TestTracerMergeRebasesParents(t *testing.T) {
	var nilTracer *tracer
	if i := nilTracer.begin("x", "y", -1, 0); i != -1 {
		t.Errorf("nil tracer begin = %d, want -1", i)
	}
	nilTracer.end(-1) // must not panic
	a, b := &tracer{}, &tracer{}
	a.begin("root-a", "l", -1, 0)
	p := b.begin("root-b", "l", -1, 1)
	b.begin("child-b", "l", p, 1)
	a.merge(b)
	if len(a.spans) != 3 || a.spans[2].Parent != 1 || a.spans[1].Parent != -1 {
		t.Errorf("merged spans: %+v", a.spans)
	}
}
