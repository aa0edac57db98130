package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"schedinspector/internal/metrics"
	"schedinspector/internal/rl"
	"schedinspector/internal/sched"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

// ---------------------------------------------------------------------------
// Legacy reference engine.
//
// This is the pre-driver rollout engine in test form: callback inspectors
// (one scalar policy forward per decision) and sim.Run on a fresh window
// copy per arm, looping over trajectories in index order. Its results are
// index-addressed, so the loop order cannot change them. The batched wave
// driver must reproduce it bit for bit — same epoch statistics, same PPO
// batches, same serialized models, same evaluation summaries.
// ---------------------------------------------------------------------------

type legacyTrajResult struct {
	steps       []rl.Step
	reward      float64
	diff, pct   float64
	inspections int
	rejections  int
	err         error
}

func legacySimConfig(t *Trainer, pol sched.Policy, insp sim.Inspector) sim.Config {
	return sim.Config{
		MaxProcs:      t.cfg.Trace.MaxProcs,
		Policy:        pol,
		Backfill:      t.cfg.Backfill,
		Inspector:     insp,
		MaxInterval:   t.cfg.MaxInterval,
		MaxRejections: t.cfg.MaxRejections,
	}
}

func legacyRollout(t *Trainer, b int, pol sched.Policy, snap *Inspector, out *legacyTrajResult) {
	rng := streamRNG(t.cfg.Seed, streamTrain, uint64(t.epoch), uint64(b))
	start := t.trainLo + rng.Intn(t.trainHi-t.trainLo)
	jobs := t.cfg.Trace.Window(start, t.cfg.SeqLen)
	base, err := sim.Run(jobs, legacySimConfig(t, pol, nil))
	if err != nil {
		out.err = err
		return
	}
	orig := base.Summary(t.cfg.Trace.MaxProcs)
	snap.Agent.Reseed(rng)
	var steps []rl.Step
	res, err := sim.Run(jobs, legacySimConfig(t, pol, snap.Sampling(&steps)))
	if err != nil {
		out.err = err
		return
	}
	insp := res.Summary(t.cfg.Trace.MaxProcs)
	out.steps = steps
	out.reward = clampReward(Reward(t.cfg.RewardKind, t.cfg.Metric, orig, insp))
	out.diff = orig.Of(t.cfg.Metric) - insp.Of(t.cfg.Metric)
	if !t.cfg.Metric.Minimize() {
		out.diff = -out.diff
	}
	out.pct = metrics.Improvement(t.cfg.Metric, orig, insp)
	out.inspections = res.Inspections
	out.rejections = res.Rejections
}

func legacyRunEpoch(t *Trainer) (EpochStats, error) {
	t.epoch++
	t0 := time.Now()
	stats := EpochStats{Epoch: t.epoch}

	snap := t.insp.Clone(nil)
	results := make([]legacyTrajResult, t.cfg.Batch)
	for b := range results {
		legacyRollout(t, b, t.cfg.Policy, snap, &results[b])
	}

	batch := make([]rl.Trajectory, 0, t.cfg.Batch)
	var inspections, rejections int
	for b := range results {
		r := &results[b]
		if r.err != nil {
			return stats, r.err
		}
		batch = append(batch, rl.Trajectory{Steps: r.steps, Reward: r.reward})
		stats.MeanImprovement += r.diff
		stats.MeanPctImprovement += r.pct
		inspections += r.inspections
		rejections += r.rejections
	}
	n := float64(t.cfg.Batch)
	stats.MeanImprovement /= n
	stats.MeanPctImprovement /= n
	if inspections > 0 {
		stats.RejectionRatio = float64(rejections) / float64(inspections)
	}
	up, err := t.ppo.Update(batch)
	if err != nil {
		return stats, err
	}
	stats.MeanReward = up.MeanReward
	stats.RewardStd = up.RewardStd
	stats.ApproxKL = up.ApproxKL
	stats.PolicyLoss = up.PolicyLoss
	stats.ValueLoss = up.ValueLoss
	stats.Entropy = up.Entropy
	stats.PolicyIters = up.PolicyIters
	stats.Steps = up.Steps
	stats.Seconds = time.Since(t0).Seconds()
	return stats, nil
}

func legacyEvaluate(insp *Inspector, cfg EvalConfig) (EvalResult, error) {
	cfg = cfg.withDefaults()
	lo := cfg.Trace.Split(cfg.TestFrom)
	hi := cfg.Trace.Len() - cfg.SeqLen + 1
	if hi <= lo {
		lo = 0
	}

	var snap *Inspector
	if insp != nil {
		snap = insp.Clone(nil)
	}

	type seqResult struct {
		base, insp  metrics.Summary
		inspections int
		rejections  int
		err         error
	}
	results := make([]seqResult, cfg.Sequences)
	for i := range results {
		r := &results[i]
		rng := streamRNG(cfg.Seed, streamEval, uint64(i))
		jobs := cfg.Trace.RandomWindow(rng, cfg.SeqLen, lo, hi)
		simCfg := sim.Config{
			MaxProcs:      cfg.Trace.MaxProcs,
			Policy:        cfg.Policy,
			Backfill:      cfg.Backfill,
			MaxInterval:   cfg.MaxInterval,
			MaxRejections: cfg.MaxRejections,
		}
		base, err := sim.Run(jobs, simCfg)
		if err != nil {
			r.err = err
			continue
		}
		r.base = base.Summary(cfg.Trace.MaxProcs)

		if insp != nil {
			if cfg.Greedy {
				simCfg.Inspector = snap.Greedy()
			} else {
				snap.Agent.Reseed(rng)
				simCfg.Inspector = snap.Stochastic()
			}
		}
		ins, err := sim.Run(jobs, simCfg)
		if err != nil {
			r.err = err
			continue
		}
		r.insp = ins.Summary(cfg.Trace.MaxProcs)
		r.inspections = ins.Inspections
		r.rejections = ins.Rejections
	}

	var out EvalResult
	out.Base = make([]metrics.Summary, 0, cfg.Sequences)
	out.Insp = make([]metrics.Summary, 0, cfg.Sequences)
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return EvalResult{}, r.err
		}
		out.Base = append(out.Base, r.base)
		out.Insp = append(out.Insp, r.insp)
		out.Inspections += r.inspections
		out.Rejections += r.rejections
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Golden equivalence: batched wave engine vs the legacy callback engine.
// ---------------------------------------------------------------------------

// TestEquivTrainerVsLegacy trains two identically-seeded trainers — one
// through the wave driver, one through the verbatim legacy engine — and
// requires identical epoch statistics (wall clock aside) and identical
// serialized models, across a stateless and a stateful base policy and
// across worker counts.
func TestEquivTrainerVsLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("full equivalence training skipped in -short mode (run via make equiv)")
	}
	tr := workload.SDSCSP2Like(3000, 19)
	for _, tc := range []struct {
		name    string
		policy  func() sched.Policy
		workers int
	}{
		{"SJF/seq", sched.SJF, 1},
		{"SJF/par", sched.SJF, 8},
		{"Slurm/par", func() sched.Policy { return sched.NewSlurm(tr) }, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *Trainer {
				trainer, err := NewTrainer(TrainConfig{
					Trace: tr, Policy: tc.policy(), Metric: metrics.BSLD,
					Batch: 6, SeqLen: 64, Seed: 23, Workers: tc.workers,
					Backfill: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				return trainer
			}
			newT, oldT := mk(), mk()
			for epoch := 0; epoch < 3; epoch++ {
				got, err := newT.RunEpoch()
				if err != nil {
					t.Fatal(err)
				}
				want, err := legacyRunEpoch(oldT)
				if err != nil {
					t.Fatal(err)
				}
				got.Seconds, want.Seconds = 0, 0
				if got != want {
					t.Fatalf("epoch %d stats diverged\nlegacy: %+v\nwave:   %+v", epoch+1, want, got)
				}
			}
			var newBuf, oldBuf bytes.Buffer
			if err := newT.Inspector().Save(&newBuf); err != nil {
				t.Fatal(err)
			}
			if err := oldT.Inspector().Save(&oldBuf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(newBuf.Bytes(), oldBuf.Bytes()) {
				t.Error("serialized models diverged between the wave and legacy engines")
			}
		})
	}
}

// TestEquivEvaluateVsLegacy compares Evaluate against the verbatim legacy
// evaluator: identical per-sequence summaries and rejection accounting
// across policies, inspection modes and worker counts.
func TestEquivEvaluateVsLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("full equivalence evaluation skipped in -short mode (run via make equiv)")
	}
	tr := workload.SDSCSP2Like(3000, 29)
	insp := newTestInspector(t, ManualFeatures)
	for _, tc := range []struct {
		name    string
		policy  func() sched.Policy
		insp    *Inspector
		greedy  bool
		workers int
	}{
		{"SJF/stochastic/seq", sched.SJF, insp, false, 1},
		{"SJF/stochastic/par", sched.SJF, insp, false, 8},
		{"SJF/greedy/par", sched.SJF, insp, true, 8},
		{"Slurm/stochastic/par", func() sched.Policy { return sched.NewSlurm(tr) }, insp, false, 8},
		{"SJF/nil-inspector/par", sched.SJF, nil, false, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := EvalConfig{
				Trace: tr, Policy: tc.policy(), Metric: metrics.BSLD,
				Sequences: 6, SeqLen: 64, Seed: 31, Workers: tc.workers,
				Backfill: true, Greedy: tc.greedy,
			}
			got, err := Evaluate(tc.insp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Policy = tc.policy() // fresh stateful instance for the legacy pass
			want, err := legacyEvaluate(tc.insp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("evaluation diverged\nlegacy: %+v\nwave:   %+v", want, got)
			}
		})
	}
}
