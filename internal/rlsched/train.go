package rlsched

import (
	"fmt"
	"math"
	"math/rand"

	"schedinspector/internal/metrics"
	"schedinspector/internal/rl"
	"schedinspector/internal/sched"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

// TrainConfig parameterizes RLScheduler training. The reward is the
// percentage improvement of the chosen metric over SJF on the same job
// sequence, mirroring how the inspector is rewarded and keeping trajectory
// returns bounded. Episodes run without backfilling, start in the first
// fifth of the trace, and train the default 32/16/8 networks with
// rl.PPOConfig's defaults.
type TrainConfig struct {
	Trace  *workload.Trace
	Metric metrics.Metric
	SeqLen int // jobs per trajectory (default 128)
	Batch  int // trajectories per epoch (default 40)
	Seed   int64
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.SeqLen == 0 {
		c.SeqLen = 128
	}
	if c.Batch == 0 {
		c.Batch = 40
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
	}
	return nil
}

// trainFrac is the leading share of the trace that training windows are
// drawn from; the rest is held out for evaluation.
const trainFrac = 0.2

// EpochStats reports one training epoch.
type EpochStats struct {
	Epoch      int
	MeanReward float64 // mean pct improvement over SJF
	ApproxKL   float64
	ValueLoss  float64
}

// Trainer optimizes an RLScheduler policy with rl.PPO: each decision is a
// many-row step, one row per observed candidate.
type Trainer struct {
	cfg   TrainConfig
	pol   *Policy
	ppo   *rl.PPO
	rng   *rand.Rand
	epoch int

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
	hi := cfg.Trace.Split(trainFrac) - cfg.SeqLen + 1
	if hi < 1 {
		return nil, fmt.Errorf("rlsched: training region too small for SeqLen=%d", cfg.SeqLen)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pol := New(rng, NormForTrace(cfg.Trace), nil)
	return &Trainer{
		cfg:     cfg,
		pol:     pol,
		ppo:     rl.NewPPO(rl.AgentFromNets(pol.Kernel, pol.Value, nil), rl.PPOConfig{}),
		rng:     rng,
		trainHi: hi,
	}, nil
}

// Policy returns the policy being trained (live). Callers should put it in
// greedy mode (SetSampling(false, nil)) before evaluation.
func (t *Trainer) Policy() *Policy { return t.pol }

// simConfig builds the simulator configuration for one episode. Per-job
// validation is skipped: every window comes from the trace, which
// NewTrainer validated once — re-checking each reference and rollout
// replay was pure overhead.
func (t *Trainer) simConfig(pol sched.Policy) sim.Config {
	return sim.Config{
		MaxProcs:   t.cfg.Trace.MaxProcs,
		Policy:     pol,
		NoValidate: true,
	}
}

// RunEpoch samples one batch of trajectories and performs a PPO update.
func (t *Trainer) RunEpoch() (EpochStats, error) {
	t.epoch++
	stats := EpochStats{Epoch: t.epoch}
	batch := make([]rl.Trajectory, 0, t.cfg.Batch)
	for b := 0; b < t.cfg.Batch; b++ {
		start := t.rng.Intn(t.trainHi)
		jobs := t.cfg.Trace.Window(start, t.cfg.SeqLen)
		// SJF's metric on the same window.
		base, err := sim.Run(jobs, t.simConfig(sched.SJF()))
		if err != nil {
			return stats, err
		}
		ref := base.Summary(t.cfg.Trace.MaxProcs).Of(t.cfg.Metric)
		var steps []rl.Step
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
		batch = append(batch, rl.Trajectory{Steps: steps, Reward: reward})
		stats.MeanReward += reward / float64(t.cfg.Batch)
	}
	st, err := t.ppo.Update(batch)
	stats.ApproxKL, stats.ValueLoss = st.ApproxKL, st.ValueLoss
	return stats, err
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
