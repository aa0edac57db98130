// Package rl implements the reinforcement-learning machinery SchedInspector
// trains with (§3, §4.1): a categorical actor-critic over two small MLPs and
// Proximal Policy Optimization with a clipped surrogate objective, entropy
// regularization and approximate-KL early stopping.
//
// Rewards are sparse: the paper holds intermediate rewards at zero and pays
// a single terminal reward per trajectory, so with an undiscounted horizon
// every step's return equals the trajectory's final reward; the critic
// supplies the variance-reducing baseline.
//
// A step's observation is one or more rows of the policy's input size. Its
// logits are the rows' outputs, concatenated, and its action indexes them;
// the critic sees the mean of the rows, or the row itself when there is
// one. The inspector's steps are the one-row case: one row, two logits.
// RLScheduler's kernel policy (internal/rlsched) is the many-row case: one
// row per waiting job, one logit each, so one network scores a candidate
// set of any size and the softmax runs over the whole set.
package rl

import (
	"fmt"
	"math"
	"math/rand"

	"schedinspector/internal/nn"
)

// Step is one agent interaction: an observation, the sampled action, and
// the log-probability the behavior policy assigned to it. Obs holds one or
// more rows of Policy.InputSize() values; Action indexes the rows' outputs
// laid end to end (row r's output k is logit r*OutputSize()+k).
type Step struct {
	Obs    []float64
	Action int
	LogP   float64
}

// Trajectory is a full episode: its steps and the terminal reward.
type Trajectory struct {
	Steps  []Step
	Reward float64
}

// Agent is a categorical actor-critic.
type Agent struct {
	Policy *nn.MLP // obs -> action logits
	Value  *nn.MLP // obs -> scalar state value

	rng      *rand.Rand
	polCache nn.Cache
	valCache nn.Cache
	probs    []float64
}

// NewAgent builds an actor-critic pair. Both networks share the same hidden
// architecture (the paper's policy and value networks are identical): hidden
// layer sizes hidden, tanh activations, nActions policy logits and a scalar
// value head.
func NewAgent(rng *rand.Rand, obsDim int, hidden []int, nActions int) *Agent {
	if obsDim <= 0 || nActions < 2 {
		panic("rl: need positive obs dim and at least 2 actions")
	}
	polSizes := append(append([]int{obsDim}, hidden...), nActions)
	valSizes := append(append([]int{obsDim}, hidden...), 1)
	return &Agent{
		Policy: nn.New(rng, polSizes, nn.Tanh, nn.Identity),
		Value:  nn.New(rng, valSizes, nn.Tanh, nn.Identity),
		rng:    rng,
		probs:  make([]float64, nActions),
	}
}

// AgentFromNets wraps already-built policy and value networks in an agent
// without reinitializing any weights — the deserialization path (model
// files, training checkpoints). rng drives action sampling and may be nil
// when only Greedy, ActionProb or StateValue will be called.
func AgentFromNets(policy, value *nn.MLP, rng *rand.Rand) *Agent {
	if policy == nil || value == nil {
		panic("rl: AgentFromNets needs both networks")
	}
	return &Agent{
		Policy: policy,
		Value:  value,
		rng:    rng,
		probs:  make([]float64, policy.OutputSize()),
	}
}

// Clone returns an agent with deep-copied networks, private scratch
// buffers, and rng as its sampling stream — the read-only policy snapshot a
// rollout worker owns, which later optimizer steps on the original can
// never race with. rng may be nil when only Greedy, ActionProb or
// StateValue will be called; install one later with Reseed.
func (a *Agent) Clone(rng *rand.Rand) *Agent {
	return &Agent{
		Policy: a.Policy.Clone(),
		Value:  a.Value.Clone(),
		rng:    rng,
		probs:  make([]float64, len(a.probs)),
	}
}

// Reseed replaces the agent's sampling stream. The rollout engine uses it to
// hand every trajectory its own deterministic RNG derived from
// (seed, epoch, trajectory index).
func (a *Agent) Reseed(rng *rand.Rand) { a.rng = rng }

// Sample draws an action from the current policy and returns it with its
// log-probability.
func (a *Agent) Sample(obs []float64) (action int, logp float64) {
	logits := a.Policy.Forward(obs, &a.polCache)
	return SampleCategorical(a.rng, logits, a.probs)
}

// SampleCategorical draws one action from the categorical distribution the
// logits define, consuming exactly one rng.Float64, and returns it with its
// log-probability. probs is softmax scratch of len(logits). It is the
// sampling kernel shared by Agent.Sample and the batched rollout driver,
// which forwards whole decision waves at once and then samples each row
// from that row's private trajectory stream — factoring the kernel out
// guarantees the two paths consume RNG draws identically.
func SampleCategorical(rng *rand.Rand, logits, probs []float64) (action int, logp float64) {
	p := nn.Softmax(logits, probs)
	u := rng.Float64()
	action = len(p) - 1
	acc := 0.0
	for i, pi := range p {
		acc += pi
		if u <= acc {
			action = i
			break
		}
	}
	return action, math.Log(math.Max(p[action], 1e-12))
}

// SampleScratch is Sample with the policy's internals exported and nothing
// copied: it draws an action exactly as Sample does — same forward pass,
// same single rng.Float64 — and returns the raw logits and the softmax
// probabilities as views of the agent's own scratch, valid until the
// agent's next call. Interleaving SampleScratch and Sample calls on one
// agent leaves the RNG stream identical to calling Sample throughout.
func (a *Agent) SampleScratch(obs []float64) (action int, logits, probs []float64) {
	logits = a.Policy.Forward(obs, &a.polCache)
	action, _ = SampleCategorical(a.rng, logits, a.probs)
	return action, logits, a.probs
}

// GreedyExplain is Greedy with the policy's internals exported: the argmax
// action plus copies of the logits and softmax probabilities. It never
// touches the sampling RNG.
func (a *Agent) GreedyExplain(obs []float64) (action int, logits, probs []float64) {
	lg := a.Policy.Forward(obs, &a.polCache)
	p := nn.Softmax(lg, a.probs)
	action = 0
	for i := 1; i < len(lg); i++ {
		if lg[i] > lg[action] {
			action = i
		}
	}
	return action, append([]float64(nil), lg...), append([]float64(nil), p...)
}

// Greedy returns the argmax action of the current policy (inference mode).
func (a *Agent) Greedy(obs []float64) int {
	logits := a.Policy.Forward(obs, &a.polCache)
	best := 0
	for i := 1; i < len(logits); i++ {
		if logits[i] > logits[best] {
			best = i
		}
	}
	return best
}

// ActionProb returns the probability the policy assigns to action for obs.
func (a *Agent) ActionProb(obs []float64, action int) float64 {
	logits := a.Policy.Forward(obs, &a.polCache)
	return nn.Softmax(logits, a.probs)[action]
}

// StateValue returns the critic's value estimate for obs.
func (a *Agent) StateValue(obs []float64) float64 {
	return a.Value.Forward(obs, &a.valCache)[0]
}

// PPOConfig holds the optimization hyperparameters.
type PPOConfig struct {
	LR          float64 // Adam learning rate for both networks (paper: 1e-3)
	ClipRatio   float64 // PPO clipping epsilon (default 0.2)
	PolicyIters int     // gradient passes over the batch per update (default 10)
	ValueIters  int     // critic passes per update (default 10)
	TargetKL    float64 // early-stop threshold on approx KL (default 0.015)
	EntropyCoef float64 // entropy bonus weight (default 0.01)
	MaxGradNorm float64 // global-norm gradient clip (default 1.0)

	// NoCritic disables the value-network baseline: advantages are the raw
	// (normalized) returns and the critic is not trained. The paper's §3.1
	// reports high training variance in this configuration; the repository
	// keeps it as an ablation.
	NoCritic bool
}

// WithDefaults returns c with every unset (zero) field at its documented
// default — the configuration NewPPO actually trains under.
func (c PPOConfig) WithDefaults() PPOConfig {
	if c.LR == 0 {
		c.LR = 1e-3
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
	if c.MaxGradNorm == 0 {
		c.MaxGradNorm = 1.0
	}
	return c
}

// PPO optimizes an Agent from batches of trajectories.
type PPO struct {
	cfg        PPOConfig
	agent      *Agent
	polOpt     *nn.Adam
	valOpt     *nn.Adam
	nPol, nVal int // parameter counts of the two networks

	// The update's scratch, reused across calls. The local trajectories are
	// flattened once per update into struct-of-arrays form — obs is every
	// step's rows stacked, rowOff[i]..rowOff[i+1] the rows of step i, vin
	// the critic's input (one row per step), the rest one value per step,
	// off[k]..off[k+1] the steps of local trajectory k — and grow only when
	// a larger shard arrives. Everything a network pass touches
	// (activations, deltas, dOut) is sized by updateChunk or by the widest
	// step, never by N.
	lo, hi   int // the batch indices of the local trajectories
	off      []int
	rowOff   []int
	obs      []float64
	vin      []float64 // obs itself when every step has one row, else pooled
	pooled   []float64
	act      []int
	logp     []float64
	ret      []float64
	adv      []float64
	rewards  []float64 // Update's view of the batch for UpdateShard
	steps    []int
	polCache nn.BatchCache
	valCache nn.BatchCache
	dOut     []float64 // a chunk's rows x nActions (policy) or x 1 (value)
	probs    []float64 // softmax of one step's logits
	logq     []float64 // log of each entry of probs

	// The reduction tree's storage (tree.go): the local shard's nodes of
	// the round in flight, the right operands of the node being folded, and
	// the cover as the exchange sees it. Slots are made on first use, so a
	// single-process update holds one cover slot and log2(batch) of stack.
	cover []*partial
	stack []*partial
	own   []Node
}

// updateChunk is how many rows one ForwardBatch/BackwardBatch pair of an
// update pass covers, at most, unless a single step has more: a chunk never
// splits a step, whose softmax spans its rows, and never crosses a
// trajectory, whose rows are one leaf of the reduction tree. The batch
// kernels add every row to a parameter's accumulator in row order and carry
// the accumulator from chunk to chunk, so the value cannot change a bit of
// the result — only speed and scratch size. 32, 128 and 512 measured equal
// on the train-epoch benchmark; 128 keeps a chunk's activations and deltas
// near 100 KB.
const updateChunk = 128

// NewPPO creates the optimizer for agent.
func NewPPO(agent *Agent, cfg PPOConfig) *PPO {
	cfg = cfg.WithDefaults()
	return &PPO{
		cfg:    cfg,
		agent:  agent,
		polOpt: nn.NewAdam(agent.Policy, cfg.LR),
		valOpt: nn.NewAdam(agent.Value, cfg.LR),
		nPol:   agent.Policy.NumParams(),
		nVal:   agent.Value.NumParams(),
	}
}

// OptimizerState is the serializable state of both Adam optimizers — the
// part of a PPO trainer that outlives the network weights in a checkpoint.
type OptimizerState struct {
	Policy nn.AdamState
	Value  nn.AdamState
}

// OptimizerState deep-copies the current optimizer state for
// checkpointing.
func (p *PPO) OptimizerState() OptimizerState {
	return OptimizerState{Policy: p.polOpt.State(), Value: p.valOpt.State()}
}

// RestoreOptimizer installs a checkpointed optimizer state. Shapes must
// match the agent the PPO was built for.
func (p *PPO) RestoreOptimizer(s OptimizerState) error {
	if err := p.polOpt.Restore(s.Policy); err != nil {
		return fmt.Errorf("rl: policy optimizer: %w", err)
	}
	if err := p.valOpt.Restore(s.Value); err != nil {
		return fmt.Errorf("rl: value optimizer: %w", err)
	}
	return nil
}

// UpdateStats reports what one PPO update did.
type UpdateStats struct {
	Steps       int     // transitions in the batch
	MeanReward  float64 // mean terminal reward across trajectories
	RewardStd   float64 // standard deviation of terminal rewards
	ApproxKL    float64 // KL estimate at the last policy pass
	PolicyIters int     // passes actually run (early stop may cut them)
	PolicyLoss  float64 // clipped-surrogate loss (entropy bonus included) at the last pass
	ValueLoss   float64 // critic MSE after the update
	Entropy     float64 // mean policy entropy over the batch
}

// flatten validates the local trajectories and copies them into the
// struct-of-arrays scratch. Nothing is touched when it fails.
func (p *PPO) flatten(local []Trajectory) error {
	dim, nA := p.agent.Policy.InputSize(), p.agent.Policy.OutputSize()
	n, rows, widest := 0, 0, 1
	for _, tr := range local {
		for _, s := range tr.Steps {
			if len(s.Obs) == 0 || len(s.Obs)%dim != 0 {
				return fmt.Errorf("rl: observation size %d, want a positive multiple of %d", len(s.Obs), dim)
			}
			r := len(s.Obs) / dim
			if s.Action < 0 || s.Action >= r*nA {
				return fmt.Errorf("rl: action %d outside the %d logits of its step", s.Action, r*nA)
			}
			rows += r
			widest = max(widest, r)
		}
		n += len(tr.Steps)
	}
	if cap(p.act) < n {
		p.act = make([]int, n)
		p.logp = make([]float64, n)
		p.ret = make([]float64, n)
		p.adv = make([]float64, n)
	}
	if cap(p.obs) < rows*dim {
		p.obs = make([]float64, rows*dim)
	}
	if len(p.probs) < widest*nA {
		p.probs = make([]float64, widest*nA)
		p.logq = make([]float64, widest*nA)
	}
	if len(p.dOut) < max(updateChunk, widest)*nA {
		p.dOut = make([]float64, max(updateChunk, widest)*nA)
	}
	p.obs, p.act, p.logp, p.ret, p.adv = p.obs[:rows*dim], p.act[:n], p.logp[:n], p.ret[:n], p.adv[:n]
	p.vin = p.obs
	if rows > n {
		if cap(p.pooled) < n*dim {
			p.pooled = make([]float64, n*dim)
		}
		p.vin = p.pooled[:n*dim]
	}
	p.off = append(p.off[:0], 0)
	p.rowOff = append(p.rowOff[:0], 0)
	i, row := 0, 0
	for _, tr := range local {
		for _, s := range tr.Steps {
			copy(p.obs[row*dim:], s.Obs)
			if rows > n {
				meanRows(p.vin[i*dim:(i+1)*dim], s.Obs)
			}
			row += len(s.Obs) / dim
			p.rowOff = append(p.rowOff, row)
			p.act[i] = s.Action
			p.logp[i] = s.LogP
			// Undiscounted sparse terminal reward: every step's return is the
			// trajectory's final reward.
			p.ret[i] = tr.Reward
			i++
		}
		p.off = append(p.off, i)
	}
	return nil
}

// meanRows writes the critic's input for a step with observation obs into
// dst: the mean of its rows, each column summed from zero in row order, or
// the row itself when there is one.
func meanRows(dst, obs []float64) {
	if len(obs) == len(dst) {
		copy(dst, obs)
		return
	}
	clear(dst)
	for r := 0; r < len(obs); r += len(dst) {
		for k, v := range obs[r : r+len(dst)] {
			dst[k] += v
		}
	}
	for k := range dst {
		dst[k] /= float64(len(obs) / len(dst))
	}
}

// Update runs one PPO update over the batch and returns statistics. A
// batch with an observation that is not whole rows, or an action outside
// its step's logits, is rejected before any state changes, with zero
// statistics. It is UpdateShard for a process that holds every
// trajectory.
func (p *PPO) Update(batch []Trajectory) (UpdateStats, error) {
	p.rewards, p.steps = p.rewards[:0], p.steps[:0]
	for _, tr := range batch {
		p.rewards = append(p.rewards, tr.Reward)
		p.steps = append(p.steps, len(tr.Steps))
	}
	return p.UpdateShard(0, batch, p.rewards, p.steps, nil)
}

// UpdateShard runs one PPO update over a batch of len(rewards)
// trajectories of which this process holds only local, the ones at batch
// indices lo, lo+1, ...; rewards and steps give every trajectory's
// terminal reward and step count. Each sum over the batch is reduced over
// the fixed tree of tree.go with ex carrying the nodes between the
// processes that share the batch, so all of them step their optimizers
// from the same bits and return the same statistics, and those are the
// bits and statistics of Update on the whole batch in one process. ex may
// be nil when local is the whole batch. Invalid input is rejected before
// any state changes, with zero statistics; once ex fails the networks may
// be part-way through the update and the state must be discarded.
func (p *PPO) UpdateShard(lo int, local []Trajectory, rewards []float64, steps []int, ex Exchange) (UpdateStats, error) {
	batch := len(rewards)
	if len(steps) != batch || lo < 0 || lo+len(local) > batch {
		return UpdateStats{}, fmt.Errorf("rl: shard [%d, %d) of a batch with %d rewards and %d step counts", lo, lo+len(local), batch, len(steps))
	}
	if ex == nil && len(local) != batch {
		return UpdateStats{}, fmt.Errorf("rl: shard holds %d of %d trajectories and has no exchange for the rest", len(local), batch)
	}
	for k, tr := range local {
		if len(tr.Steps) != steps[lo+k] || math.Float64bits(tr.Reward) != math.Float64bits(rewards[lo+k]) {
			return UpdateStats{}, fmt.Errorf("rl: trajectory %d has %d steps and reward %v, the batch summary says %d and %v",
				lo+k, len(tr.Steps), tr.Reward, steps[lo+k], rewards[lo+k])
		}
	}
	if err := p.flatten(local); err != nil {
		return UpdateStats{}, err
	}
	p.lo, p.hi = lo, lo+len(local)

	var stats UpdateStats
	n := 0
	if batch > 0 {
		for i, r := range rewards {
			stats.MeanReward += r
			n += steps[i]
		}
		stats.MeanReward /= float64(batch)
		var rv float64
		for _, r := range rewards {
			d := r - stats.MeanReward
			rv += d * d
		}
		stats.RewardStd = math.Sqrt(rv / float64(batch))
	}
	if n == 0 {
		return stats, nil
	}
	stats.Steps = n

	// Advantages: return minus critic baseline (unless ablated), normalized
	// across the batch.
	mom, err := p.reduce(Round{Phase: PhaseMoments}, batch, ex)
	if err != nil {
		return stats, err
	}
	if mom[0] != float64(n) {
		return stats, fmt.Errorf("rl: advantage moments cover %v transitions, the step counts sum to %d", mom[0], n)
	}
	mean, std := mom[1], math.Sqrt(mom[2]/float64(n))+1e-8
	for i := range p.adv {
		p.adv[i] = (p.adv[i] - mean) / std
	}

	stats.PolicyIters, stats.ApproxKL, stats.Entropy, stats.PolicyLoss, err = p.updatePolicy(batch, n, ex)
	if err == nil && !p.cfg.NoCritic {
		stats.ValueLoss, err = p.updateValue(batch, n, ex)
	}
	return stats, err
}

// leaf computes trajectory i's own sum for a round of phase ph into dst.
func (p *PPO) leaf(ph Phase, i int, dst *partial) {
	lo, hi := p.off[i-p.lo], p.off[i-p.lo+1]
	switch ph {
	case PhaseMoments:
		p.momentsLeaf(lo, hi, dst.vec)
	case PhasePolicy:
		p.policyLeaf(lo, hi, dst)
	case PhaseValue:
		p.valueLeaf(lo, hi, dst)
	}
}

// momentsLeaf stores the raw advantages of steps [lo, hi) and leaves their
// count and Welford mean and M2, taken in step order, in vec.
func (p *PPO) momentsLeaf(lo, hi int, vec []float64) {
	dim := p.agent.Policy.InputSize()
	var mean, m2 float64
	for c := lo; c < hi; c += updateChunk {
		ch := min(c+updateChunk, hi)
		var values []float64
		if !p.cfg.NoCritic {
			values = p.agent.Value.ForwardBatch(p.vin[c*dim:ch*dim], ch-c, &p.valCache)
		}
		for i := c; i < ch; i++ {
			adv := p.ret[i]
			if values != nil {
				adv -= values[i-c]
			}
			p.adv[i] = adv
			d := adv - mean
			mean += d / float64(i-lo+1)
			m2 += d * (adv - mean)
		}
	}
	vec[0], vec[1], vec[2] = float64(hi-lo), mean, m2
}

// updatePolicy runs clipped-surrogate passes with entropy bonus and KL early
// stopping over a batch of n transitions. Returns passes run, final
// approximate KL, mean entropy, and the mean loss (clipped surrogate minus
// entropy bonus) of the last pass. The early stop reads the reduced KL, so
// processes sharing the batch stop on the same pass.
func (p *PPO) updatePolicy(batch, n int, ex Exchange) (iters int, kl, entropy, loss float64, err error) {
	for iter := 0; iter < p.cfg.PolicyIters; iter++ {
		sum, err := p.reduce(Round{Phase: PhasePolicy, Iter: iter}, batch, ex)
		if err != nil {
			return iters, kl, entropy, loss, err
		}
		klSum, entSum, lossSum := sum[p.nPol], sum[p.nPol+1], sum[p.nPol+2]
		kl = klSum / float64(n)
		entropy = entSum / float64(n)
		loss = (lossSum - p.cfg.EntropyCoef*entSum) / float64(n)
		iters = iter + 1
		if kl > 1.5*p.cfg.TargetKL && iter > 0 {
			break // stop before applying a step that drifts too far
		}
		g := p.cover[0].pol
		g.Scale(1 / float64(n))
		g.ClipGlobalNorm(p.cfg.MaxGradNorm)
		p.polOpt.Step(p.agent.Policy, g)
	}
	return iters, kl, entropy, loss, nil
}

// policyLeaf sums one policy pass over steps [lo, hi) into dst: the
// gradients, then the KL, entropy and surrogate-loss sums. Each chunk of
// whole steps is one ForwardBatch over their rows, a softmax over each
// step's own segment of the logits, and one BackwardBatch.
func (p *PPO) policyLeaf(lo, hi int, dst *partial) {
	pol := p.agent.Policy
	dim, nA := pol.InputSize(), pol.OutputSize()
	clear(dst.vec[:p.nPol])
	var klSum, entSum, lossSum float64
	for c := lo; c < hi; {
		ch := c + 1
		for ch < hi && p.rowOff[ch+1]-p.rowOff[c] <= updateChunk {
			ch++
		}
		r0, rows := p.rowOff[c], p.rowOff[ch]-p.rowOff[c]
		logits := pol.ForwardBatch(p.obs[r0*dim:(r0+rows)*dim], rows, &p.polCache)
		dLogits := p.dOut[:rows*nA]
		for i := c; i < ch; i++ {
			a, b := (p.rowOff[i]-r0)*nA, (p.rowOff[i+1]-r0)*nA
			act, logpOld, adv := p.act[i], p.logp[i], p.adv[i]
			probs := nn.Softmax(logits[a:b], p.probs[:b-a])
			logq := p.logq[:b-a]
			logpNew := math.Log(math.Max(probs[act], 1e-12))
			ratio := math.Exp(logpNew - logpOld)
			klSum += logpOld - logpNew
			clipped := math.Max(math.Min(ratio, 1+p.cfg.ClipRatio), 1-p.cfg.ClipRatio)
			lossSum += -math.Min(ratio*adv, clipped*adv)

			// Clipped surrogate: gradient flows only when unclipped.
			coef := 0.0
			if adv >= 0 && ratio < 1+p.cfg.ClipRatio || adv < 0 && ratio > 1-p.cfg.ClipRatio {
				coef = -ratio * adv // d(-surrogate)/d(logpNew)
			}

			var h float64
			for k, q := range probs {
				if q > 0 {
					logq[k] = math.Log(q)
					h -= q * logq[k]
				}
			}
			entSum += h

			dl := dLogits[a:b]
			for k := range dl {
				ind := 0.0
				if k == act {
					ind = 1
				}
				// d logpNew / d logits_k = ind - p_k
				dl[k] = coef * (ind - probs[k])
				// entropy bonus: loss -= c*H, dH/dl_k = -p_k(log p_k + H)
				if probs[k] > 0 {
					dl[k] += p.cfg.EntropyCoef * probs[k] * (logq[k] + h)
				}
			}
		}
		pol.BackwardBatch(&p.polCache, dLogits, rows, dst.pol)
		c = ch
	}
	dst.vec[p.nPol], dst.vec[p.nPol+1], dst.vec[p.nPol+2] = klSum, entSum, lossSum
}

// updateValue fits the critic to the returns with MSE over a batch of n
// transitions; returns final loss.
func (p *PPO) updateValue(batch, n int, ex Exchange) (loss float64, err error) {
	for iter := 0; iter < p.cfg.ValueIters; iter++ {
		sum, err := p.reduce(Round{Phase: PhaseValue, Iter: iter}, batch, ex)
		if err != nil {
			return loss, err
		}
		loss = sum[p.nVal] / float64(n)
		g := p.cover[0].val
		g.Scale(1 / float64(n))
		g.ClipGlobalNorm(p.cfg.MaxGradNorm)
		p.valOpt.Step(p.agent.Value, g)
	}
	return loss, nil
}

// valueLeaf sums one critic pass over steps [lo, hi) into dst: the
// gradients, then the squared-error loss sum.
func (p *PPO) valueLeaf(lo, hi int, dst *partial) {
	val := p.agent.Value
	dim := val.InputSize()
	clear(dst.vec[:p.nVal])
	var loss float64
	for c := lo; c < hi; c += updateChunk {
		ch := min(c+updateChunk, hi)
		rows := ch - c
		values := val.ForwardBatch(p.vin[c*dim:ch*dim], rows, &p.valCache)
		dOut := p.dOut[:rows]
		for r, v := range values {
			d := v - p.ret[c+r]
			loss += 0.5 * d * d
			dOut[r] = d
		}
		val.BackwardBatch(&p.valCache, dOut, rows, dst.val)
	}
	dst.vec[p.nVal] = loss
}
