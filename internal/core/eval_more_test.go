package core

import (
	"math"
	"math/rand"
	"testing"

	"schedinspector/internal/metrics"
	"schedinspector/internal/sched"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

// TestStochasticMatchesPolicyDistribution verifies that the deployment-mode
// inspector rejects at the policy's probability, per §3.2 ("acts similarly
// as it does in the training process").
func TestStochasticMatchesPolicyDistribution(t *testing.T) {
	in := newTestInspector(t, ManualFeatures)
	s := sampleState()
	p := in.RejectProb(s)
	dec := in.Stochastic()
	rejects := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if dec(s) {
			rejects++
		}
	}
	if emp := float64(rejects) / n; math.Abs(emp-p) > 0.03 {
		t.Errorf("empirical reject rate %.3f vs policy prob %.3f", emp, p)
	}
}

// TestEvaluateGreedyVsStochastic: the argmax inspector (Inspector.Greedy,
// which serving's greedy mode uses) is deterministic, so two runs over one
// window agree exactly; Evaluate samples, from per-sequence streams of its
// seed, so two evaluations of one seed agree too. Both produce valid
// summaries.
func TestEvaluateGreedyVsStochastic(t *testing.T) {
	tr := workload.SDSCSP2Like(3000, 6)
	in := NewInspector(rand.New(rand.NewSource(8)), ManualFeatures, NormalizerForTrace(tr, metrics.BSLD))
	simCfg := sim.Config{MaxProcs: tr.MaxProcs, Policy: sched.SJF(), Inspector: in.Greedy()}
	g1, err := sim.Run(tr.Window(1000, 64), simCfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := sim.Run(tr.Window(1000, 64), simCfg)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Inspections == 0 || g1.Summary(tr.MaxProcs) != g2.Summary(tr.MaxProcs) || g1.Rejections != g2.Rejections {
		t.Fatalf("greedy runs differ or inspect nothing: %+v vs %+v", g1.Summary(tr.MaxProcs), g2.Summary(tr.MaxProcs))
	}

	cfg := EvalConfig{
		Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD,
		Sequences: 5, SeqLen: 64, Seed: 3,
	}
	r1, err := Evaluate(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Evaluate(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Insp {
		if r1.Insp[i] != r2.Insp[i] {
			t.Fatalf("stochastic evaluation not deterministic at %d", i)
		}
	}
	if r1.Inspections == 0 {
		t.Error("stochastic evaluation made no inspections")
	}
	for _, s := range r1.Insp {
		if s.Jobs == 0 || math.IsNaN(s.AvgBSLD) {
			t.Errorf("bad inspected summary %+v", s)
		}
	}
}

// TestTrainerRejectsBadPPOConfig exercises the PPO override plumbing.
func TestTrainerPPOOverrides(t *testing.T) {
	tr := workload.SDSCSP2Like(2000, 5)
	trainer, err := NewTrainer(TrainConfig{
		Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD,
		Batch: 2, SeqLen: 64, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.RunEpoch(); err != nil {
		t.Fatal(err)
	}
}

// TestWaitMetricTraining runs one epoch optimizing wait instead of bsld,
// covering the metric-aware queue-delay path end to end.
func TestWaitMetricTraining(t *testing.T) {
	tr := workload.SDSCSP2Like(2500, 5)
	for _, m := range []metrics.Metric{metrics.Wait, metrics.MBSLD} {
		trainer, err := NewTrainer(TrainConfig{
			Trace: tr, Policy: sched.SJF(), Metric: m,
			Batch: 3, SeqLen: 64, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := trainer.RunEpoch()
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if math.IsNaN(st.MeanReward) || math.IsNaN(st.MeanImprovement) {
			t.Errorf("%v: NaN stats %+v", m, st)
		}
	}
}

// TestBackfillTraining runs one epoch with EASY backfilling enabled,
// covering the backfill-contribution feature path end to end.
func TestBackfillTraining(t *testing.T) {
	tr := workload.SDSCSP2Like(2500, 5)
	trainer, err := NewTrainer(TrainConfig{
		Trace: tr, Policy: sched.F1(), Metric: metrics.BSLD, Backfill: true,
		Batch: 3, SeqLen: 64, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.RunEpoch(); err != nil {
		t.Fatal(err)
	}
}

// TestFeatureModesTrainEndToEnd runs one epoch per feature mode.
func TestFeatureModesTrainEndToEnd(t *testing.T) {
	tr := workload.SDSCSP2Like(2500, 5)
	for _, mode := range []FeatureMode{ManualFeatures, CompactedFeatures, NativeFeatures} {
		trainer, err := NewTrainer(TrainConfig{
			Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD, FeatureMode: mode,
			Batch: 2, SeqLen: 64, Seed: 2,
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if _, err := trainer.RunEpoch(); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
	}
}

// TestRewardKindsTrainEndToEnd runs one epoch per reward kind.
func TestRewardKindsTrainEndToEnd(t *testing.T) {
	tr := workload.SDSCSP2Like(2500, 5)
	for _, kind := range []RewardKind{PercentageReward, NativeReward, WinLossReward} {
		trainer, err := NewTrainer(TrainConfig{
			Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD, RewardKind: kind,
			Batch: 2, SeqLen: 64, Seed: 2,
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if _, err := trainer.RunEpoch(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

// TestSlurmPolicyTraining covers the stateful-policy (Resetter) interaction
// inside the trainer's repeated simulations.
func TestSlurmPolicyTraining(t *testing.T) {
	tr := workload.SDSCSP2Like(2500, 5)
	trainer, err := NewTrainer(TrainConfig{
		Trace: tr, Policy: sched.NewSlurm(tr), Metric: metrics.BSLD, Backfill: true,
		Batch: 2, SeqLen: 64, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.RunEpoch(); err != nil {
		t.Fatal(err)
	}
}

// TestCompareStatistics covers the paired-comparison wrapper.
func TestCompareStatistics(t *testing.T) {
	r := EvalResult{
		Base: []metrics.Summary{{AvgBSLD: 10, Util: 0.5}, {AvgBSLD: 12, Util: 0.5}, {AvgBSLD: 14, Util: 0.6}},
		Insp: []metrics.Summary{{AvgBSLD: 8, Util: 0.6}, {AvgBSLD: 9, Util: 0.7}, {AvgBSLD: 10, Util: 0.7}},
	}
	d := r.Compare(metrics.BSLD, 1)
	if d.N != 3 || d.Wins != 3 || d.MeanDelta <= 0 {
		t.Errorf("bsld comparison: %+v", d)
	}
	// util is maximized: the inspected runs are better there too, so the
	// sign-adjusted delta must also be positive.
	du := r.Compare(metrics.Util, 1)
	if du.Wins != 3 || du.MeanDelta <= 0 {
		t.Errorf("util comparison: %+v", du)
	}
}
