package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"schedinspector/internal/metrics"
	"schedinspector/internal/obs"
	"schedinspector/internal/rl"
	"schedinspector/internal/rollout"
	"schedinspector/internal/sched"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

// TrainConfig parameterizes one SchedInspector training run (§4.1 defaults
// in parentheses).
type TrainConfig struct {
	Trace  *workload.Trace // job trace; required
	Policy sched.Policy    // base scheduling policy; required
	Metric metrics.Metric  // performance metric to optimize (bsld)

	RewardKind  RewardKind  // reward function (percentage)
	FeatureMode FeatureMode // feature building mechanism (manual)
	Backfill    bool        // EASY backfilling in the simulated environment

	Hidden    []int   // policy/value hidden sizes (32, 16, 8)
	SeqLen    int     // jobs per trajectory (128)
	Batch     int     // trajectories per epoch (100)
	LR        float64 // learning rate (1e-3)
	Seed      int64   // RNG seed for sampling and initialization
	TrainFrac float64 // fraction of the trace used for training (0.2)

	MaxInterval   float64 // simulator retry cut-off (600 s)
	MaxRejections int     // simulator per-job rejection cap (72)

	// Workers is the rollout fan-out: trajectories per epoch are simulated
	// on this many goroutines (0 = one per CPU). Any worker count produces
	// bit-identical results — per-trajectory RNG streams are derived from
	// (Seed, epoch, trajectory index), never from execution order.
	Workers int

	// World, Rank and Peers configure DD-PPO-style multi-process training
	// (internal/dist). World is the number of cooperating worker processes
	// (0 = 1, single-process); Rank is this process's index in [0, World);
	// Peers lists every rank's listen address in rank order — exactly World
	// entries when World > 1, and empty when single-process. Each worker
	// rolls out its ShardRange of the epoch batch and exchanges the update's
	// partial gradients with all peers, so World must not exceed Batch.
	World int
	Rank  int
	Peers []string

	PPO rl.PPOConfig // optional PPO overrides (zero values take defaults)

	// Metrics, when non-nil, receives worker-utilization and rollout-latency
	// observations (see NewRolloutMetrics).
	Metrics *RolloutMetrics

	// Flight, when non-nil, attaches the decision flight recorder: each
	// epoch emits an "epoch" span rooting per-episode and per-decision
	// spans, and every inspector decision records an explain record
	// (features, logits, probabilities, verdict, scheduling context). The
	// epoch span carries every EpochStats field as an attribute (see
	// EpochStatsFromSpans). The set of explain records is identical for
	// any Workers value; only ring order and wall timestamps depend on
	// execution.
	Flight *obs.TraceRing
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.SeqLen == 0 {
		c.SeqLen = 128
	}
	if c.Batch == 0 {
		c.Batch = 100
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.TrainFrac == 0 {
		c.TrainFrac = 0.2
	}
	if c.MaxInterval == 0 {
		c.MaxInterval = sim.DefaultMaxInterval
	}
	if c.MaxRejections == 0 {
		c.MaxRejections = sim.DefaultMaxRejections
	}
	if c.Workers == 0 {
		c.Workers = rollout.ResolveWorkers(0)
	}
	if c.World == 0 {
		c.World = 1
	}
	if c.PPO.LR == 0 {
		c.PPO.LR = c.LR
	}
	c.PPO = c.PPO.WithDefaults()
	return c
}

// validate rejects configurations that zero-defaulting would otherwise
// silently accept. It runs after withDefaults, so a zero ("unset") field has
// already taken its documented default and anything still out of range was
// set deliberately — and wrongly.
func (c TrainConfig) validate() error {
	switch {
	case c.SeqLen < 1:
		return fmt.Errorf("core: TrainConfig.SeqLen = %d, must be >= 1 (0 means the default 128)", c.SeqLen)
	case c.Batch < 1:
		return fmt.Errorf("core: TrainConfig.Batch = %d, must be >= 1 (0 means the default 100)", c.Batch)
	case c.LR < 0 || math.IsNaN(c.LR) || math.IsInf(c.LR, 0):
		return fmt.Errorf("core: TrainConfig.LR = %v, must be positive and finite (0 means the default 1e-3)", c.LR)
	case c.TrainFrac < 0 || c.TrainFrac > 1:
		return fmt.Errorf("core: TrainConfig.TrainFrac = %v, must be in (0, 1] (0 means the default 0.2)", c.TrainFrac)
	case c.MaxInterval < 0 || math.IsNaN(c.MaxInterval):
		return fmt.Errorf("core: TrainConfig.MaxInterval = %v, must be positive (0 means the default %g)",
			c.MaxInterval, sim.DefaultMaxInterval)
	case c.MaxRejections < 0:
		return fmt.Errorf("core: TrainConfig.MaxRejections = %d, must be >= 1 (0 means the default %d)",
			c.MaxRejections, sim.DefaultMaxRejections)
	case c.Workers < 0:
		return fmt.Errorf("core: TrainConfig.Workers = %d, must be >= 0 (0 means one per CPU)", c.Workers)
	case c.World < 1:
		return fmt.Errorf("core: TrainConfig.World = %d, must be >= 1 (0 means single-process)", c.World)
	case c.World > c.Batch:
		return fmt.Errorf("core: TrainConfig.World = %d exceeds Batch = %d; every worker needs at least one trajectory",
			c.World, c.Batch)
	case c.Rank < 0 || c.Rank >= c.World:
		return fmt.Errorf("core: TrainConfig.Rank = %d, must be in [0, World=%d)", c.Rank, c.World)
	case c.World > 1 && len(c.Peers) != c.World:
		return fmt.Errorf("core: TrainConfig.Peers has %d entries, need exactly World = %d (one listen address per rank)",
			len(c.Peers), c.World)
	case c.World == 1 && len(c.Peers) > 0:
		return fmt.Errorf("core: TrainConfig.Peers set with World = 1; peer addresses only apply to distributed runs")
	}
	for _, h := range c.Hidden {
		if h < 1 {
			return fmt.Errorf("core: TrainConfig.Hidden contains %d, layer sizes must be >= 1", h)
		}
	}
	return nil
}

// EpochStats summarizes one training epoch — the quantities plotted in the
// paper's training-curve figures.
type EpochStats struct {
	Epoch int

	// MeanReward is the mean terminal reward under the configured kind.
	MeanReward float64
	// MeanImprovement is the mean raw metric difference m_orig - m_insp
	// (sign-flipped for maximized metrics), the y-axis of Figures 4-7.
	MeanImprovement float64
	// MeanPctImprovement is the mean relative improvement, the y-axis of
	// Figures 9 and 11.
	MeanPctImprovement float64
	// RejectionRatio is rejections/inspections across the epoch's
	// trajectories, the orange curves of Figures 7, 9 and 11.
	RejectionRatio float64

	// RewardStd is the standard deviation of terminal rewards across the
	// epoch's trajectories — the variance signal the §3.1 critic-ablation
	// discussion turns on.
	RewardStd float64

	ApproxKL   float64
	PolicyLoss float64 // clipped-surrogate loss at the last policy pass
	ValueLoss  float64
	Entropy    float64

	PolicyIters int     // PPO policy passes actually run (KL early stop may cut them)
	Steps       int     // RL transitions (inspections) gathered this epoch
	Seconds     float64 // wall-clock duration of the epoch (sampling + update)
}

// Trainer drives the Figure 3 workflow: sample job sequences, run the base
// scheduler and the inspector-enabled scheduler, convert the outcome into a
// terminal reward, and improve the policy with PPO.
type Trainer struct {
	cfg   TrainConfig
	insp  *Inspector
	ppo   *rl.PPO
	rng   *rand.Rand
	epoch int

	trainLo, trainHi int // window-start range for training sequences

	epochT0       time.Time // set by BeginEpoch; EpochStats.Seconds measures from here
	epochSpan     obs.Span  // open epoch span while the flight recorder is attached
	epochSpanOpen bool
}

// NewTrainer validates the configuration and builds a trainer with a fresh
// untrained inspector.
func NewTrainer(cfg TrainConfig) (*Trainer, error) {
	return newTrainer(cfg, nil)
}

// NewTrainerFrom validates the configuration and builds a trainer
// warm-started from an existing inspector: the trainer clones warm's
// weights, feature mode, and — critically — its normalizer, so the feature
// contract the model was originally trained under is preserved even though
// cfg.Trace (e.g. a replay window reconstructed from live decisions) would
// yield different normalization statistics. cfg.FeatureMode must match
// warm.Mode. Optimizer state starts cold: PPO's Adam moments are not part
// of the inspector, so fine-tuning begins with fresh moments at cfg.LR.
func NewTrainerFrom(cfg TrainConfig, warm *Inspector) (*Trainer, error) {
	if warm == nil {
		return nil, fmt.Errorf("core: NewTrainerFrom requires a warm-start inspector")
	}
	return newTrainer(cfg, warm)
}

func newTrainer(cfg TrainConfig, warm *Inspector) (*Trainer, error) {
	cfg = cfg.withDefaults()
	if cfg.Trace == nil {
		return nil, fmt.Errorf("core: TrainConfig.Trace is required")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("core: TrainConfig.Policy is required")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := cfg.Trace.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	split := cfg.Trace.Split(cfg.TrainFrac)
	hi := split - cfg.SeqLen + 1
	if hi < 1 {
		return nil, fmt.Errorf("core: training region has %d jobs, need at least SeqLen=%d",
			split, cfg.SeqLen)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var insp *Inspector
	if warm != nil {
		if warm.Mode != cfg.FeatureMode {
			return nil, fmt.Errorf("core: warm-start inspector uses feature mode %q, config wants %q",
				warm.Mode, cfg.FeatureMode)
		}
		insp = warm.Clone(rng)
	} else {
		norm := NewNormalizer(workload.ComputeStats(cfg.Trace), cfg.Metric, cfg.MaxRejections, cfg.MaxInterval)
		insp = NewInspector(rng, cfg.FeatureMode, norm, cfg.Hidden)
	}
	cfg.Flight.SetMeta(cfg.FeatureMode.FeatureNames(), cfg.FeatureMode.String(), cfg.MaxRejections)
	return &Trainer{
		cfg:     cfg,
		insp:    insp,
		ppo:     rl.NewPPO(insp.Agent, cfg.PPO),
		rng:     rng,
		trainLo: 0,
		trainHi: hi,
	}, nil
}

// Inspector returns the model being trained. It is live: it improves as
// epochs run.
func (t *Trainer) Inspector() *Inspector { return t.insp }

// Config returns the (defaulted) configuration.
func (t *Trainer) Config() TrainConfig { return t.cfg }

// simConfig builds the simulator configuration with the given policy
// instance. Per-job validation is skipped: every window the trainer
// schedules comes from the trace, which NewTrainer validated once —
// re-checking each of the thousands of baseline and inspected replays
// was pure hot-path overhead.
func (t *Trainer) simConfig(pol sched.Policy) sim.Config {
	return sim.Config{
		MaxProcs:      t.cfg.Trace.MaxProcs,
		Policy:        pol,
		Backfill:      t.cfg.Backfill,
		MaxInterval:   t.cfg.MaxInterval,
		MaxRejections: t.cfg.MaxRejections,
		NoValidate:    true,
	}
}

// RunEpoch samples one batch of trajectories through the rollout driver —
// the baselines run straight through, then every inspected episode steps
// concurrently with the policy forwarded once per decision wave, both
// fanned over cfg.Workers goroutines — performs a PPO update, and returns the
// epoch statistics. Results are reduced in trajectory-index order and every
// trajectory draws from its own derived RNG stream (window start first,
// then each sampled action), so the statistics, the PPO batch, and the
// trained model are bit-identical for any worker count and any wave
// composition.
//
// RunEpoch is the single-process composition of the separately-invokable
// epoch phases (see phases.go): BeginEpoch, one full-batch RolloutShard,
// and ApplyDeltas. Distributed workers call the phases directly, rolling
// out only their shard and applying it with ApplyShard.
func (t *Trainer) RunEpoch() (EpochStats, error) {
	t.BeginEpoch()
	deltas, err := t.RolloutShard(0, t.cfg.Batch)
	if err != nil {
		return EpochStats{Epoch: t.epoch}, err
	}
	return t.ApplyDeltas(deltas)
}

// Train runs the given number of epochs, invoking cb (if non-nil) after
// each, and returns the per-epoch statistics — the data behind every
// training-curve figure in the paper. It is TrainCtx without checkpointing
// or interruption: the same epoch driver, never canceled.
func (t *Trainer) Train(epochs int, cb func(EpochStats)) ([]EpochStats, error) {
	return t.TrainCtx(context.Background(), epochs, CheckpointConfig{}, cb)
}
