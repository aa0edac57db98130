package rlsched

import (
	"fmt"
	"math"
	"math/rand"

	"schedinspector/internal/metrics"
	"schedinspector/internal/nn"
	"schedinspector/internal/sched"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

// TrainConfig parameterizes RLScheduler training. The reward is the
// percentage improvement of the chosen metric over a reference heuristic
// (SJF by default) on the same job sequence, mirroring how the inspector is
// rewarded and keeping trajectory returns bounded.
type TrainConfig struct {
	Trace     *workload.Trace
	Metric    metrics.Metric
	Reference sched.Policy // baseline policy for the reward; default SJF
	Backfill  bool

	Hidden    []int
	SeqLen    int     // jobs per trajectory (default 128)
	Batch     int     // trajectories per epoch (default 40)
	LR        float64 // Adam learning rate (default 1e-3)
	Seed      int64
	TrainFrac float64 // default 0.2

	ClipRatio   float64 // PPO clip (default 0.2)
	PolicyIters int     // default 10
	ValueIters  int     // default 10
	TargetKL    float64 // default 0.015
	EntropyCoef float64 // default 0.01
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Reference == nil {
		c.Reference = sched.SJF()
	}
	if c.SeqLen == 0 {
		c.SeqLen = 128
	}
	if c.Batch == 0 {
		c.Batch = 40
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.TrainFrac == 0 {
		c.TrainFrac = 0.2
	}
	if c.ClipRatio == 0 {
		c.ClipRatio = 0.2
	}
	if c.PolicyIters == 0 {
		c.PolicyIters = 10
	}
	if c.ValueIters == 0 {
		c.ValueIters = 10
	}
	if c.TargetKL == 0 {
		c.TargetKL = 0.015
	}
	if c.EntropyCoef == 0 {
		c.EntropyCoef = 0.01
	}
	return c
}

// validate rejects configurations that zero-defaulting would otherwise
// silently accept, in core.TrainConfig's wording. It runs after
// withDefaults, so a field still out of range was set deliberately.
func (c TrainConfig) validate() error {
	switch {
	case c.SeqLen < 1:
		return fmt.Errorf("rlsched: TrainConfig.SeqLen = %d, must be >= 1 (0 means the default 128)", c.SeqLen)
	case c.Batch < 1:
		return fmt.Errorf("rlsched: TrainConfig.Batch = %d, must be >= 1 (0 means the default 40)", c.Batch)
	case c.LR < 0 || math.IsNaN(c.LR) || math.IsInf(c.LR, 0):
		return fmt.Errorf("rlsched: TrainConfig.LR = %v, must be positive and finite (0 means the default 1e-3)", c.LR)
	case c.TrainFrac < 0 || c.TrainFrac > 1 || math.IsNaN(c.TrainFrac):
		return fmt.Errorf("rlsched: TrainConfig.TrainFrac = %v, must be in (0, 1] (0 means the default 0.2)", c.TrainFrac)
	}
	for _, h := range c.Hidden {
		if h < 1 {
			return fmt.Errorf("rlsched: TrainConfig.Hidden contains %d, layer sizes must be >= 1", h)
		}
	}
	return nil
}

// EpochStats reports one training epoch.
type EpochStats struct {
	Epoch              int
	MeanReward         float64 // mean pct improvement over the reference policy
	MeanPctImprovement float64 // alias of MeanReward, for symmetry with core
	ApproxKL           float64
	ValueLoss          float64
}

// Trainer optimizes an RLScheduler policy with PPO.
type Trainer struct {
	cfg    TrainConfig
	pol    *Policy
	kOpt   *nn.Adam
	vOpt   *nn.Adam
	kGrads *nn.Grads
	vGrads *nn.Grads
	rng    *rand.Rand
	epoch  int

	trainHi int
}

// NewTrainer validates the configuration and builds a trainer.
func NewTrainer(cfg TrainConfig) (*Trainer, error) {
	cfg = cfg.withDefaults()
	if cfg.Trace == nil {
		return nil, fmt.Errorf("rlsched: TrainConfig.Trace is required")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := cfg.Trace.Validate(); err != nil {
		return nil, fmt.Errorf("rlsched: %w", err)
	}
	hi := cfg.Trace.Split(cfg.TrainFrac) - cfg.SeqLen + 1
	if hi < 1 {
		return nil, fmt.Errorf("rlsched: training region too small for SeqLen=%d", cfg.SeqLen)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pol := New(rng, NormForTrace(cfg.Trace), cfg.Hidden)
	return &Trainer{
		cfg:     cfg,
		pol:     pol,
		kOpt:    nn.NewAdam(pol.Kernel, cfg.LR),
		vOpt:    nn.NewAdam(pol.Value, cfg.LR),
		kGrads:  nn.NewGrads(pol.Kernel),
		vGrads:  nn.NewGrads(pol.Value),
		rng:     rng,
		trainHi: hi,
	}, nil
}

// Policy returns the policy being trained (live). Callers should put it in
// greedy mode (SetSampling(false, nil)) before evaluation.
func (t *Trainer) Policy() *Policy { return t.pol }

type trajectory struct {
	steps  []Step
	reward float64
}

// simConfig builds the simulator configuration for one episode. Per-job
// validation is skipped: every window comes from the trace, which
// NewTrainer validated once — re-checking each reference and rollout
// replay was pure overhead.
func (t *Trainer) simConfig(pol sched.Policy) sim.Config {
	return sim.Config{
		MaxProcs:   t.cfg.Trace.MaxProcs,
		Policy:     pol,
		Backfill:   t.cfg.Backfill,
		NoValidate: true,
	}
}

// RunEpoch samples one batch of trajectories and performs a PPO update.
func (t *Trainer) RunEpoch() (EpochStats, error) {
	t.epoch++
	stats := EpochStats{Epoch: t.epoch}
	var batch []trajectory
	for b := 0; b < t.cfg.Batch; b++ {
		start := t.rng.Intn(t.trainHi)
		jobs := t.cfg.Trace.Window(start, t.cfg.SeqLen)
		// The reference policy's metric on the same window.
		base, err := sim.Run(jobs, t.simConfig(t.cfg.Reference))
		if err != nil {
			return stats, err
		}
		ref := base.Summary(t.cfg.Trace.MaxProcs).Of(t.cfg.Metric)
		var steps []Step
		t.pol.SetSampling(true, &steps)
		res, err := sim.Run(jobs, t.simConfig(t.pol))
		t.pol.SetSampling(false, nil)
		if err != nil {
			return stats, err
		}
		got := res.Summary(t.cfg.Trace.MaxProcs).Of(t.cfg.Metric)
		reward := 0.0
		if ref != 0 {
			reward = (ref - got) / ref
			if !t.cfg.Metric.Minimize() {
				reward = -reward
			}
		}
		reward = math.Max(-5, math.Min(5, reward))
		batch = append(batch, trajectory{steps: steps, reward: reward})
		stats.MeanReward += reward / float64(t.cfg.Batch)
	}
	stats.MeanPctImprovement = stats.MeanReward
	kl, vloss := t.update(batch)
	stats.ApproxKL = kl
	stats.ValueLoss = vloss
	return stats, nil
}

// Train runs epochs and returns the history.
func (t *Trainer) Train(epochs int, cb func(EpochStats)) ([]EpochStats, error) {
	var out []EpochStats
	for i := 0; i < epochs; i++ {
		st, err := t.RunEpoch()
		if err != nil {
			return out, err
		}
		out = append(out, st)
		if cb != nil {
			cb(st)
		}
	}
	return out, nil
}

// flat is one transition with its return and advantage.
type flat struct {
	step *Step
	ret  float64
	adv  float64
}

// update performs the PPO update over variable-size candidate sets. The
// surrogate gradient with respect to candidate i's logit is
// coef*(1[i==chosen] - p_i), which backpropagates through the shared kernel
// once per candidate.
func (t *Trainer) update(batch []trajectory) (kl, vloss float64) {
	var samples []flat
	for bi := range batch {
		for si := range batch[bi].steps {
			samples = append(samples, flat{step: &batch[bi].steps[si], ret: batch[bi].reward})
		}
	}
	if len(samples) == 0 {
		return 0, 0
	}
	var cache nn.Cache
	// advantages with value baseline, normalized
	var mean, m2 float64
	for i := range samples {
		v := t.pol.Value.Forward(samples[i].step.Pooled, &cache)[0]
		samples[i].adv = samples[i].ret - v
		d := samples[i].adv - mean
		mean += d / float64(i+1)
		m2 += d * (samples[i].adv - mean)
	}
	std := math.Sqrt(m2/float64(len(samples))) + 1e-8
	for i := range samples {
		samples[i].adv = (samples[i].adv - mean) / std
	}

	logits := make([]float64, MaxObserve)
	probs := make([]float64, MaxObserve)
	for iter := 0; iter < t.cfg.PolicyIters; iter++ {
		t.kGrads.Zero()
		var klSum float64
		for i := range samples {
			s := samples[i].step
			n := len(s.Cands)
			lg := logits[:n]
			for c := 0; c < n; c++ {
				lg[c] = t.pol.Kernel.Forward(s.Cands[c], &cache)[0]
			}
			pr := nn.Softmax(lg, probs[:n])
			logpNew := math.Log(math.Max(pr[s.Chosen], 1e-12))
			ratio := math.Exp(logpNew - s.LogP)
			klSum += s.LogP - logpNew
			adv := samples[i].adv
			coef := 0.0
			if adv >= 0 && ratio < 1+t.cfg.ClipRatio || adv < 0 && ratio > 1-t.cfg.ClipRatio {
				coef = -ratio * adv
			}
			var h float64
			for _, q := range pr {
				if q > 0 {
					h -= q * math.Log(q)
				}
			}
			for c := 0; c < n; c++ {
				ind := 0.0
				if c == s.Chosen {
					ind = 1
				}
				dLogit := coef * (ind - pr[c])
				if pr[c] > 0 {
					dLogit += t.cfg.EntropyCoef * pr[c] * (math.Log(pr[c]) + h)
				}
				if dLogit == 0 {
					continue
				}
				t.pol.Kernel.Forward(s.Cands[c], &cache) // refresh cache for this candidate
				t.pol.Kernel.Backward(&cache, []float64{dLogit}, t.kGrads)
			}
		}
		kl = klSum / float64(len(samples))
		if kl > 1.5*t.cfg.TargetKL && iter > 0 {
			break
		}
		t.kGrads.Scale(1 / float64(len(samples)))
		t.kGrads.ClipGlobalNorm(1)
		t.kOpt.Step(t.pol.Kernel, t.kGrads)
	}

	for iter := 0; iter < t.cfg.ValueIters; iter++ {
		t.vGrads.Zero()
		vloss = 0
		for i := range samples {
			s := samples[i]
			v := t.pol.Value.Forward(s.step.Pooled, &cache)[0]
			d := v - s.ret
			vloss += 0.5 * d * d
			t.pol.Value.Backward(&cache, []float64{d}, t.vGrads)
		}
		vloss /= float64(len(samples))
		t.vGrads.Scale(1 / float64(len(samples)))
		t.vGrads.ClipGlobalNorm(1)
		t.vOpt.Step(t.pol.Value, t.vGrads)
	}
	return kl, vloss
}
