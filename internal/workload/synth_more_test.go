package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInvNormalCDF(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.841344746, 1},
		{0.158655254, -1},
		{0.977249868, 2},
		{0.999968329, 4},
	}
	for _, c := range cases {
		if got := invNormalCDF(c.p); math.Abs(got-c.want) > 1e-5 {
			t.Errorf("invNormalCDF(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(invNormalCDF(0), -1) || !math.IsInf(invNormalCDF(1), 1) {
		t.Error("boundary quantiles not infinite")
	}
	// round trip against the CDF via the error function
	for _, p := range []float64{0.01, 0.1, 0.3, 0.7, 0.9, 0.99} {
		z := invNormalCDF(p)
		back := 0.5 * (1 + math.Erf(z/math.Sqrt2))
		if math.Abs(back-p) > 1e-8 {
			t.Errorf("round trip p=%v: got %v", p, back)
		}
	}
}

func TestPow2Quantile(t *testing.T) {
	d := newPow2Dist(64, 8)
	if got := d.quantile(0); got != 1 {
		t.Errorf("quantile(0) = %d, want 1", got)
	}
	if got := d.quantile(0.9999999); got != 64 {
		t.Errorf("quantile(~1) = %d, want 64", got)
	}
	prev := 0
	for _, u := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.99} {
		v := d.quantile(u)
		if v < prev {
			t.Errorf("quantile not monotone at %v: %d < %d", u, v, prev)
		}
		prev = v
	}
}

func TestCanonicalEst(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		run := math.Exp(rng.Float64()*12) / 10 // 0.1s .. ~16000s
		est := canonicalEst(rng, run)
		if est < run {
			t.Fatalf("canonical est %v below run %v", est, run)
		}
		if est > 36*3600 {
			t.Fatalf("canonical est %v above cap", est)
		}
	}
	// run beyond the largest bucket: falls back to the cap
	if got := canonicalEst(rng, 200000); got != 36*3600 {
		t.Errorf("huge run est = %v, want cap", got)
	}
}

func TestCorrelationRaisesAreaMean(t *testing.T) {
	base := SynthConfig{
		Name: "c", MaxProcs: 256, Jobs: 8000, Seed: 5,
		Interval: 600, MeanEst: 6000, Procs: 12,
	}
	ind := Generate(base)
	base.Corr = 0.8
	cor := Generate(base)
	si, sc := ComputeStats(ind), ComputeStats(cor)
	// mean est and procs are calibrated in both...
	if rel(sc.MeanEst, si.MeanEst) > 0.1 || rel(sc.MeanProcs, si.MeanProcs) > 0.25 {
		t.Fatalf("marginals moved too much: est %v vs %v, procs %v vs %v",
			sc.MeanEst, si.MeanEst, sc.MeanProcs, si.MeanProcs)
	}
	// ...but the mean area (est*procs) must rise with correlation.
	if sc.MeanArea <= si.MeanArea*1.2 {
		t.Errorf("correlated area %v not above independent %v", sc.MeanArea, si.MeanArea)
	}
}

func TestCalibrateLoad(t *testing.T) {
	mk := func() []Job {
		jobs := make([]Job, 100)
		for i := range jobs {
			jobs[i] = Job{ID: i + 1, Submit: float64(i * 100), Est: 1000, Run: 500, Procs: 2}
		}
		return jobs
	}
	jobs := mk()
	calibrateLoad(jobs, 10, 0.15)
	tr := &Trace{MaxProcs: 10, Jobs: jobs}
	if got := OfferedLoad(tr); math.Abs(got-0.15) > 0.01 {
		t.Errorf("calibrated load %v, want 0.15", got)
	}
	for _, j := range jobs {
		if j.Run > j.Est {
			t.Fatal("run exceeds est after calibration")
		}
	}
	// Unreachable target (max load with run=est is ~2.0) saturates run = est.
	jobs = mk()
	calibrateLoad(jobs, 10, 5.0)
	for _, j := range jobs {
		if j.Run != j.Est {
			t.Fatal("unreachable target should saturate runs at estimates")
		}
	}
	// target 0 is a no-op
	jobs = mk()
	calibrateLoad(jobs, 10, 0)
	if jobs[0].Run != 500 {
		t.Error("zero target modified runs")
	}
}

func TestRegimeModulationPreservesStats(t *testing.T) {
	cfg := SynthConfig{
		Name: "r", MaxProcs: 240, Jobs: 8000, Seed: 9,
		Interval: 538, MeanEst: 17024, Procs: 6,
		RegimeStrength: 1.3, RegimeDwell: 21600,
	}
	tr := Generate(cfg)
	s := ComputeStats(tr)
	if rel(s.MeanInterval, 538) > 0.02 {
		t.Errorf("interval %v drifted", s.MeanInterval)
	}
	if rel(s.MeanEst, 17024) > 0.05 {
		t.Errorf("est %v drifted", s.MeanEst)
	}
	// Regimes must create visible burstiness: the coefficient of variation
	// of 100-job window durations should exceed the regime-free case.
	cv := windowDurationCV(tr)
	cfg.RegimeStrength = 0
	cvFlat := windowDurationCV(Generate(cfg))
	if cv <= cvFlat {
		t.Errorf("regime CV %v not above flat CV %v", cv, cvFlat)
	}
}

func windowDurationCV(tr *Trace) float64 {
	var durs []float64
	for s := 0; s+100 < len(tr.Jobs); s += 100 {
		durs = append(durs, tr.Jobs[s+100].Submit-tr.Jobs[s].Submit)
	}
	var mean, m2 float64
	for i, d := range durs {
		delta := d - mean
		mean += delta / float64(i+1)
		m2 += delta * (d - mean)
	}
	return math.Sqrt(m2/float64(len(durs))) / mean
}

// Property: generated jobs always satisfy run <= est... (not guaranteed in
// SWF inputs, but the generators promise it) and positive fields.
func TestGeneratorInvariantProperty(t *testing.T) {
	f := func(seed int64, corr, defProb uint8) bool {
		tr := Generate(SynthConfig{
			Name: "p", MaxProcs: 64, Jobs: 300, Seed: seed,
			Interval: 300, MeanEst: 3000, Procs: 8,
			Corr:           float64(corr%100) / 100,
			DefaultEstProb: float64(defProb%100) / 100,
			TargetLoad:     0.4,
		})
		if tr.Validate() != nil {
			return false
		}
		for _, j := range tr.Jobs {
			if j.Run <= 0 || j.Est <= 0 || j.Run > j.Est+1e-9 || j.Procs < 1 || j.Procs > 64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
