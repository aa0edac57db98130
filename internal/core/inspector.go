package core

import (
	"math/rand"
	"slices"

	"schedinspector/internal/ckpt"
	"schedinspector/internal/metrics"
	"schedinspector/internal/rl"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

// Actions of the inspector's binary policy head.
const (
	ActionAccept = 0
	ActionReject = 1
)

// Inspector is a trained (or in-training) SchedInspector model: the RL
// agent, the feature mode it observes through, and the normalization
// constants of the trace it was fitted to.
type Inspector struct {
	Agent *rl.Agent
	Mode  FeatureMode
	Norm  Normalizer

	feat []float64 // scratch feature buffer
}

// DefaultHidden is the paper's network architecture: three hidden layers of
// 32, 16 and 8 neurons (§3.1).
func DefaultHidden() []int { return []int{32, 16, 8} }

// NewInspector creates an untrained inspector with the paper's architecture
// (or custom hidden sizes) for the given feature mode and normalizer.
func NewInspector(rng *rand.Rand, mode FeatureMode, norm Normalizer, hidden []int) *Inspector {
	if len(hidden) == 0 {
		hidden = DefaultHidden()
	}
	return &Inspector{
		Agent: rl.NewAgent(rng, mode.Dim(), hidden, 2),
		Mode:  mode,
		Norm:  norm,
	}
}

// Clone returns a deep copy of the inspector whose sampling draws from rng —
// the read-only policy snapshot each rollout worker owns. Both networks are
// copied (via nn.MLP.Clone), so concurrent sampling from the clone can never
// race with PPO updates to the original. rng may be nil for greedy-only use;
// the rollout engine installs per-trajectory streams with Agent.Reseed.
func (in *Inspector) Clone(rng *rand.Rand) *Inspector {
	return &Inspector{Agent: in.Agent.Clone(rng), Mode: in.Mode, Norm: in.Norm}
}

// WithNormalizer returns a copy of the inspector bound to different trace
// statistics — how a model trained on trace X is applied to trace Y
// (Table 4). The underlying networks are shared, not copied.
func (in *Inspector) WithNormalizer(norm Normalizer) *Inspector {
	return &Inspector{Agent: in.Agent, Mode: in.Mode, Norm: norm}
}

// Greedy returns a deterministic sim.Inspector that rejects whenever the
// policy's argmax action is reject — the inference mode used at evaluation
// time and in production.
func (in *Inspector) Greedy() sim.Inspector {
	return func(s *sim.State) bool {
		in.feat = in.Norm.Features(in.feat, in.Mode, s)
		return in.Agent.Greedy(in.feat) == ActionReject
	}
}

// Stochastic returns a sim.Inspector that samples actions from the policy
// without recording. Per §3.2 of the paper, inference "acts similarly as it
// does in the training process": the deployed inspector keeps the policy's
// action distribution rather than taking its argmax, so rejection rates at
// evaluation time match what training converged to (the argmax variant,
// Greedy, systematically amplifies any state whose reject probability
// crosses one half and with it the utilization cost).
func (in *Inspector) Stochastic() sim.Inspector {
	return func(s *sim.State) bool {
		in.feat = in.Norm.Features(in.feat, in.Mode, s)
		action, _ := in.Agent.Sample(in.feat)
		return action == ActionReject
	}
}

// Explain runs one decision with the policy's internals exported: the
// chosen action plus copies of the observed feature vector, the raw logits
// and the softmax probabilities — the flight recorder's per-decision
// payload. In stochastic mode (greedy=false) it consumes exactly one draw
// from the agent's RNG stream, identically to Stochastic, so serving paths
// can switch between the two without perturbing the decision sequence;
// greedy mode consumes none.
func (in *Inspector) Explain(s *sim.State, greedy bool) (action int, features, logits, probs []float64) {
	if greedy {
		in.feat = in.Norm.Features(in.feat, in.Mode, s)
		action, logits, probs = in.Agent.GreedyExplain(in.feat)
		return action, slices.Clone(in.feat), logits, probs
	}
	action, features, logits, probs = in.ExplainScratch(s)
	return action, slices.Clone(features), slices.Clone(logits), slices.Clone(probs)
}

// ExplainScratch is stochastic Explain with nothing copied: the three
// slices are views of the inspector's own scratch, valid until its next
// call. The serving path calls it under the lock that serializes the
// inspector and encodes the decision's records from the views before
// releasing it.
func (in *Inspector) ExplainScratch(s *sim.State) (action int, features, logits, probs []float64) {
	in.feat = in.Norm.Features(in.feat, in.Mode, s)
	action, logits, probs = in.Agent.SampleScratch(in.feat)
	return action, in.feat, logits, probs
}

// RejectProb returns the policy's probability of rejecting in state s,
// useful for analysis and debugging.
func (in *Inspector) RejectProb(s *sim.State) float64 {
	in.feat = in.Norm.Features(in.feat, in.Mode, s)
	return in.Agent.ActionProb(in.feat, ActionReject)
}

// payload encodes the inspector as a model file's checkpoint payload: its
// networks, feature mode and normalizer, with zero epoch and seed and no
// optimizer state.
func (in *Inspector) payload() ([]byte, error) {
	c := TrainerCheckpoint{Mode: in.Mode, Norm: in.Norm, Policy: in.Agent.Policy, Value: in.Agent.Value}
	return c.Encode()
}

// SaveFile writes the inspector's model file to path atomically (temp
// file, fsync, rename): a daemon reloading path while it is overwritten
// reads the old model or the new one, never half of one.
func (in *Inspector) SaveFile(path string) error {
	payload, err := in.payload()
	if err != nil {
		return err
	}
	return ckpt.Write(path, TrainerCheckpointVersion, payload)
}

// NormalizerForTrace is a convenience that derives a Normalizer from a
// trace's statistics with the simulator defaults.
func NormalizerForTrace(t *workload.Trace, metric metrics.Metric) Normalizer {
	return NewNormalizer(workload.ComputeStats(t), metric, sim.DefaultMaxRejections, sim.DefaultMaxInterval)
}
