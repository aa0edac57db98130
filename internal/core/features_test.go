package core

import (
	"math"
	"testing"
	"testing/quick"

	"schedinspector/internal/metrics"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

func testNormalizer(metric metrics.Metric) Normalizer {
	return Normalizer{
		MaxEst: 36000, MeanEst: 6000, MaxProcs: 128,
		MaxRejections: 72, MaxInterval: 600, Metric: metric,
	}
}

func sampleState() *sim.State {
	return &sim.State{
		Now:        1000,
		Job:        workload.Job{ID: 5, Submit: 400, Est: 3600, Run: 1800, Procs: 32},
		JobWait:    600,
		Rejections: 18,
		FreeProcs:  64, TotalProcs: 128,
		Runnable:        true,
		BackfillEnabled: true,
		BackfillCount:   5,
		Queue: []sim.QueueItem{
			{Wait: 100, Est: 600, Procs: 4},
			{Wait: 50, Est: 7200, Procs: 16},
		},
	}
}

func TestFeatureModeBasics(t *testing.T) {
	for _, m := range []FeatureMode{ManualFeatures, CompactedFeatures, NativeFeatures} {
		got, err := ParseFeatureMode(m.String())
		if err != nil || got != m {
			t.Errorf("round trip %v failed: %v %v", m, got, err)
		}
		if m.Dim() <= 0 {
			t.Errorf("%v dim %d", m, m.Dim())
		}
	}
	if _, err := ParseFeatureMode("bogus"); err == nil {
		t.Error("unknown mode accepted")
	}
	if ManualFeatures.Dim() != 8 || CompactedFeatures.Dim() != 5 {
		t.Errorf("dims: manual %d compacted %d", ManualFeatures.Dim(), CompactedFeatures.Dim())
	}
	if NativeFeatures.Dim() != 6+3*NativeQueueSlots {
		t.Errorf("native dim %d", NativeFeatures.Dim())
	}
}

func TestManualFeatureSemantics(t *testing.T) {
	n := testNormalizer(metrics.BSLD)
	s := sampleState()
	f := n.Features(nil, ManualFeatures, s)
	if len(f) != 8 {
		t.Fatalf("len = %d", len(f))
	}
	// wait: 600/(600+6000)
	if math.Abs(f[0]-600.0/6600) > 1e-12 {
		t.Errorf("wait feature = %v", f[0])
	}
	// est: 3600/36000
	if math.Abs(f[1]-0.1) > 1e-12 {
		t.Errorf("est feature = %v", f[1])
	}
	// procs: 32/128
	if math.Abs(f[2]-0.25) > 1e-12 {
		t.Errorf("procs feature = %v", f[2])
	}
	// rejected: 18/72
	if math.Abs(f[3]-0.25) > 1e-12 {
		t.Errorf("rejected feature = %v", f[3])
	}
	// queue delay raw: 600/600 + 600/7200 = 1.0833; scale = 10*600/6000 = 1
	raw := 600.0/600 + 600.0/7200
	if math.Abs(f[4]-raw/(raw+1)) > 1e-12 {
		t.Errorf("queue delay feature = %v, want %v", f[4], raw/(raw+1))
	}
	// avail: 64/128
	if f[5] != 0.5 {
		t.Errorf("avail feature = %v", f[5])
	}
	if f[6] != 1 {
		t.Errorf("runnable feature = %v", f[6])
	}
	// backfill: 5/(5+5)
	if math.Abs(f[7]-0.5) > 1e-12 {
		t.Errorf("backfill feature = %v", f[7])
	}

	// runnable off, backfill disabled
	s.Runnable = false
	s.BackfillEnabled = false
	s.BackfillCount = 0
	f = n.Features(f, ManualFeatures, s)
	if f[6] != 0 || f[7] != 0 {
		t.Errorf("off bits: runnable=%v backfill=%v", f[6], f[7])
	}
}

func TestQueueDelayMetricAware(t *testing.T) {
	s := sampleState()
	nB := testNormalizer(metrics.BSLD)
	nW := testNormalizer(metrics.Wait)
	// For wait, each queued job contributes the full interval.
	if got := nW.QueueDelay(s.Queue); got != 1200 {
		t.Errorf("wait queue delay = %v, want 1200", got)
	}
	if got := nB.QueueDelay(s.Queue); math.Abs(got-(1.0+600.0/7200)) > 1e-12 {
		t.Errorf("bsld queue delay = %v", got)
	}
	// Both normalize into [0,1).
	fB := nB.Features(nil, ManualFeatures, s)
	fW := nW.Features(nil, ManualFeatures, s)
	if fB[4] <= 0 || fB[4] >= 1 || fW[4] <= 0 || fW[4] >= 1 {
		t.Errorf("queue delay features out of range: %v %v", fB[4], fW[4])
	}
}

func TestCompactedAndNativeFeatures(t *testing.T) {
	n := testNormalizer(metrics.BSLD)
	s := sampleState()
	c := n.Features(nil, CompactedFeatures, s)
	if len(c) != 5 {
		t.Fatalf("compacted len %d", len(c))
	}
	if c[4] != 1 {
		t.Errorf("compacted runnable = %v", c[4])
	}
	nat := n.Features(nil, NativeFeatures, s)
	if len(nat) != NativeFeatures.Dim() {
		t.Fatalf("native len %d", len(nat))
	}
	// first queue slot populated, third slot zero
	if nat[6] == 0 || nat[7] == 0 {
		t.Error("first queue slot empty")
	}
	base := 6 + 3*2
	if nat[base] != 0 || nat[base+1] != 0 || nat[base+2] != 0 {
		t.Error("unused queue slot not zeroed")
	}
}

func TestFeaturesReuseBuffer(t *testing.T) {
	n := testNormalizer(metrics.BSLD)
	s := sampleState()
	buf := make([]float64, 8)
	f := n.Features(buf, ManualFeatures, s)
	if &f[0] != &buf[0] {
		t.Error("buffer with right capacity not reused")
	}
	// A stale larger buffer is resliced, not grown.
	big := make([]float64, 64)
	f = n.Features(big, ManualFeatures, s)
	if len(f) != 8 {
		t.Errorf("resized len = %d", len(f))
	}
}

func TestNewNormalizerDefaults(t *testing.T) {
	n := NewNormalizer(workload.Stats{}, metrics.BSLD, 0, 0)
	if n.MaxEst <= 0 || n.MeanEst <= 0 || n.MaxProcs <= 0 {
		t.Errorf("degenerate stats not defended: %+v", n)
	}
	if n.MaxRejections != sim.DefaultMaxRejections || n.MaxInterval != sim.DefaultMaxInterval {
		t.Errorf("defaults not applied: %+v", n)
	}
	tr := workload.SDSCSP2Like(500, 1)
	n = NormalizerForTrace(tr, metrics.Wait)
	if n.MaxProcs != 128 || n.Metric != metrics.Wait {
		t.Errorf("NormalizerForTrace: %+v", n)
	}
}

// Property: every feature of every mode stays in [0,1] for arbitrary states.
func TestFeatureRangeProperty(t *testing.T) {
	n := testNormalizer(metrics.BSLD)
	f := func(wait, est uint32, procs, rej, free uint16, runnable bool, bc uint8, qn uint8) bool {
		s := &sim.State{
			Job:        workload.Job{Est: 1 + float64(est%100000), Procs: 1 + int(procs%512)},
			JobWait:    float64(wait % 1000000),
			Rejections: int(rej % 100),
			FreeProcs:  int(free % 200), TotalProcs: 128,
			Runnable:        runnable,
			BackfillEnabled: true,
			BackfillCount:   int(bc),
		}
		for i := 0; i < int(qn%40); i++ {
			s.Queue = append(s.Queue, sim.QueueItem{Wait: float64(i), Est: 1 + float64(i*97), Procs: 1 + i%16})
		}
		for _, mode := range []FeatureMode{ManualFeatures, CompactedFeatures, NativeFeatures} {
			for _, v := range n.Features(nil, mode, s) {
				if v < 0 || v > 1.6 || math.IsNaN(v) { // avail can exceed 1 only if free > total; allow slack
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
