package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"schedinspector/internal/metrics"
	"schedinspector/internal/obs"
	"schedinspector/internal/rl"
	"schedinspector/internal/rollout"
	"schedinspector/internal/sched"
)

// The trainer's epoch is split into explicit, separately-invokable phases so
// a shard of trajectory indices can be computed in any process (the
// DD-PPO-style multi-process engine in internal/dist):
//
//	BeginEpoch    — advance the epoch counter; pure bookkeeping.
//	RolloutShard  — simulate trajectory indices [lo, hi) and return one
//	                TrajDelta per index. Every per-index quantity (RNG
//	                stream, window start, sampled actions, reward) is a pure
//	                function of (Seed, epoch, index), so shards computed in
//	                different processes are bit-identical to the same
//	                indices of a single-process epoch.
//	ApplyShard    — turn the shard's deltas into the epoch statistics and
//	                the PPO update (the Adam steps). A process that holds
//	                only part of the batch passes an rl.Exchange: the
//	                per-trajectory statistics are gathered through it and
//	                folded in index order, and the update reduces its
//	                gradients over rl's fixed tree through it, so the
//	                statistics and the updated weights never depend on which
//	                process produced which shard.
//	ApplyDeltas   — ApplyShard for the complete delta set, no exchange.
//
// RunEpoch is exactly BeginEpoch + RolloutShard(0, Batch) + ApplyDeltas, so
// the single-process trainer and an N-worker distributed run execute the
// same code over the same per-index streams — which is what pins them
// bit-identical (see internal/dist's equivalence suite).

// TrajDelta is the rollout-shard phase's contribution for one trajectory
// index: the PPO transitions plus the scalar statistics the epoch fold
// consumes. It contains only data, no references into trainer state, and
// only the scalars ever leave the process that rolled it out.
//
// Steps are read-only once RolloutShard has returned them: the Obs slices
// of one trajectory are carved from shared slabs rather than allocated one
// by one, so a consumer reads them — ApplyShard copies them into the PPO
// batch matrix — and never writes or appends to them.
type TrajDelta struct {
	// Index is the trajectory's position in the epoch batch [0, Batch).
	Index int

	// Steps are the trajectory's RL transitions (observation, sampled
	// action, behavior log-probability).
	Steps []rl.Step

	// Reward is the clamped terminal reward of the trajectory.
	Reward float64

	// Improvement is the raw metric difference m_orig - m_insp
	// (sign-flipped for maximized metrics); PctImprovement the relative
	// form. Both are summed, in index order, into the epoch means.
	Improvement    float64
	PctImprovement float64

	// Inspections and Rejections count the inspector's decisions in this
	// trajectory, the inputs of the epoch rejection ratio.
	Inspections int
	Rejections  int
}

// ShardRange returns the contiguous trajectory-index range [lo, hi) that
// rank owns out of batch indices split across world workers. Remainder
// indices go to the lowest ranks, so shard sizes differ by at most one and
// every index is owned by exactly one rank.
func ShardRange(batch, world, rank int) (lo, hi int) {
	if world < 1 || rank < 0 || rank >= world {
		panic(fmt.Sprintf("core: ShardRange(batch=%d, world=%d, rank=%d) out of range", batch, world, rank))
	}
	size, rem := batch/world, batch%world
	lo = rank*size + min(rank, rem)
	hi = lo + size
	if rank < rem {
		hi++
	}
	return lo, hi
}

// BeginEpoch advances the trainer into its next epoch and returns the epoch
// number. It starts the epoch's wall clock (EpochStats.Seconds spans
// BeginEpoch to ApplyDeltas) but performs no simulation: distributed
// workers call it in lockstep so every process derives the same
// (Seed, epoch, index) RNG streams before rolling out its own shard.
func (t *Trainer) BeginEpoch() int {
	t.epoch++
	t.epochT0 = time.Now()
	return t.epoch
}

// RolloutShard simulates trajectory indices [lo, hi) of the current epoch —
// both arms through the rollout driver, as Evaluate does: the uninspected
// baselines run straight through in one call, then the inspected episodes
// step through the decision waves in a second — and returns one TrajDelta
// per index, in index order.
//
// Each index b draws its window start and every action from the private
// stream derived from (Seed, epoch, b), and the wave driver reports
// inspected slots under their global index (rollout.Config.SlotBase), so the
// deltas for [lo, hi) are bit-identical whether the shard is computed alone
// in a worker process or as part of a full single-process epoch. The
// baseline call carries no ring, so it adds no flight records, and its
// outcomes are pure functions of their windows.
func (t *Trainer) RolloutShard(lo, hi int) ([]TrajDelta, error) {
	B := t.cfg.Batch
	if lo < 0 || hi > B || lo >= hi {
		return nil, fmt.Errorf("core: RolloutShard [%d, %d) out of range for batch %d", lo, hi, B)
	}
	n := hi - lo

	// Per-index streams, global-indexed: entry b exists for b in [lo, hi).
	rngs := make([]*rand.Rand, hi)
	starts := make([]int, hi)
	for b := lo; b < hi; b++ {
		rngs[b] = streamRNG(t.cfg.Seed, streamTrain, uint64(t.epoch), uint64(b))
		starts[b] = t.trainLo + rngs[b].Intn(t.trainHi-t.trainLo)
	}

	workers := t.cfg.Workers
	if workers > n {
		workers = n
	}
	// Entries 0..n-1 serve the baselines, n..2n-1 the inspected episodes.
	// Concurrent episodes each need a private stateful-policy instance; an
	// uncloneable one forces the driver's sequential mode for both arms.
	pols, ok := rollout.PolicyClones(t.cfg.Policy, 2*n)
	if !ok {
		workers = 1
	}
	pol := func(k int) sched.Policy {
		if len(pols) > 1 {
			return pols[k]
		}
		return pols[0]
	}
	baseEps := make([]rollout.Episode, n)
	eps := make([]rollout.Episode, n)
	for k := range eps {
		baseEps[k] = rollout.Episode{Start: starts[lo+k], Cfg: t.simConfig(pol(k))}
		eps[k] = rollout.Episode{Start: starts[lo+k], Cfg: t.simConfig(pol(n + k)), Interactive: true}
	}
	base, baseRep, err := rollout.Run(baseEps, rollout.Config{Trace: t.cfg.Trace, SeqLen: t.cfg.SeqLen, Workers: workers})
	if err != nil {
		return nil, err
	}

	// The inspector needs only one snapshot, which every worker's forward
	// reads.
	sampler := newWaveSampler(t.insp.Clone(nil), rngs, false, true)
	rollCfg := rollout.Config{
		Trace: t.cfg.Trace, SeqLen: t.cfg.SeqLen,
		Workers: workers, NewDecide: sampler.worker, SlotBase: lo,
	}
	if t.cfg.Flight != nil {
		// The epoch span roots this epoch's episode spans; its ID is a pure
		// function of (seed, epoch), never of scheduling, so every worker's
		// shard records under the same root. Decisions go to the ring as
		// explain records, through the sampler.
		epochID := obs.DeriveSpanID(uint64(t.cfg.Seed), streamTrain, uint64(t.epoch))
		if !t.epochSpanOpen {
			t.epochSpan = obs.StartSpan(epochSpanName, epochID, 0, 0)
			t.epochSpanOpen = true
		}
		rollCfg.Ring = t.cfg.Flight
		rollCfg.SpanRoot = epochID
		sampler.explainTo(t.cfg.Flight, t.epoch, t.cfg.MaxRejections)
	}
	outcomes, rep, err := rollout.Run(eps, rollCfg)
	t.cfg.Metrics.observeRollout(workers, (baseRep.Busy + rep.Busy).Seconds(), (baseRep.Wall + rep.Wall).Seconds())
	if t.cfg.Metrics != nil {
		for k := range eps {
			t.cfg.Metrics.TrajectorySeconds.Observe(baseRep.EpisodeSeconds[k] + rep.EpisodeSeconds[k])
		}
	}
	if err != nil {
		return nil, err
	}

	deltas := make([]TrajDelta, n)
	for k := range outcomes {
		b := lo + k
		orig, insp := base[k].Summary, outcomes[k].Summary
		diff := orig.Of(t.cfg.Metric) - insp.Of(t.cfg.Metric)
		if !t.cfg.Metric.Minimize() {
			diff = -diff
		}
		deltas[k] = TrajDelta{
			Index:          b,
			Steps:          sampler.slots[b].steps,
			Reward:         clampReward(Reward(t.cfg.RewardKind, t.cfg.Metric, orig, insp)),
			Improvement:    diff,
			PctImprovement: metrics.Improvement(t.cfg.Metric, orig, insp),
			Inspections:    outcomes[k].Inspections,
			Rejections:     outcomes[k].Rejections,
		}
	}
	return deltas, nil
}

// ApplyDeltas folds a complete epoch's deltas — all Batch trajectory
// indices, in index order — into one PPO update and returns the epoch
// statistics: ApplyShard for a process that holds the whole batch. An
// incomplete, duplicated or out-of-order delta set is rejected before any
// state changes.
func (t *Trainer) ApplyDeltas(deltas []TrajDelta) (EpochStats, error) {
	if len(deltas) != t.cfg.Batch {
		return EpochStats{Epoch: t.epoch}, fmt.Errorf("core: ApplyDeltas got %d deltas, epoch batch is %d", len(deltas), t.cfg.Batch)
	}
	return t.ApplyShard(deltas, nil)
}

// phaseStats is the exchange round that gathers every trajectory's
// statWidth scalars; it precedes the update's own rounds (rl leaves phase
// zero to its caller).
const (
	phaseStats rl.Phase = 0
	statWidth           = 6 // reward, improvement, pct improvement, inspections, rejections, steps
)

// ApplyShard applies the current epoch given only the deltas of a
// contiguous run of trajectory indices, local, with ex connecting the
// processes that hold the rest: one round gathers every trajectory's
// scalar statistics, which are folded by ascending index exactly as a
// single process folds them, and rl.PPO.UpdateShard then reduces the
// update over the same exchange. Every process returns the same
// statistics and holds the same weights and optimizer state afterwards,
// bit for bit those of ApplyDeltas on the whole set. ex may be nil when
// local is the whole batch. A malformed shard is rejected before any state
// changes; once ex has failed the update may be half applied and the
// trainer must be rebuilt from a checkpoint.
func (t *Trainer) ApplyShard(local []TrajDelta, ex rl.Exchange) (EpochStats, error) {
	stats := EpochStats{Epoch: t.epoch}
	B := t.cfg.Batch
	lo := 0
	if len(local) > 0 {
		lo = local[0].Index
	}
	hi := lo + len(local)
	if lo < 0 || hi > B || ex == nil && len(local) != B {
		return stats, fmt.Errorf("core: ApplyShard got deltas [%d, %d) of an epoch batch of %d", lo, hi, B)
	}
	table := make([]float64, B*statWidth)
	batch := make([]rl.Trajectory, len(local))
	for k := range local {
		d := &local[k]
		if d.Index != lo+k {
			return stats, fmt.Errorf("core: ApplyShard delta %d carries index %d; deltas must cover %d..%d in order",
				k, d.Index, lo, hi-1)
		}
		batch[k] = rl.Trajectory{Steps: d.Steps, Reward: d.Reward}
		copy(table[d.Index*statWidth:], []float64{d.Reward, d.Improvement, d.PctImprovement,
			float64(d.Inspections), float64(d.Rejections), float64(len(d.Steps))})
	}
	if ex != nil {
		all, err := ex(rl.Round{Phase: phaseStats}, []rl.Node{{Lo: lo, Hi: hi, Vec: table[lo*statWidth : hi*statWidth]}})
		if err != nil {
			return stats, err
		}
		next := 0
		for _, nd := range all {
			if nd.Lo != next || nd.Hi <= nd.Lo || nd.Hi > B || len(nd.Vec) != (nd.Hi-nd.Lo)*statWidth {
				return stats, fmt.Errorf("core: gathered statistics [%d, %d) with %d values do not continue a batch of %d at %d",
					nd.Lo, nd.Hi, len(nd.Vec), B, next)
			}
			for i, v := range nd.Vec {
				// The last three of a trajectory's scalars are counts sent as floats.
				if i%statWidth >= 3 && !(v >= 0 && v <= 1<<53 && v == math.Trunc(v)) {
					return stats, fmt.Errorf("core: gathered statistics of trajectory %d carry %v where a count belongs", nd.Lo+i/statWidth, v)
				}
			}
			copy(table[nd.Lo*statWidth:], nd.Vec)
			next = nd.Hi
		}
		if next != B {
			return stats, fmt.Errorf("core: gathered statistics cover %d of %d trajectories", next, B)
		}
	}

	rewards, steps := make([]float64, B), make([]int, B)
	var inspections, rejections int
	for i := range rewards {
		row := table[i*statWidth : (i+1)*statWidth]
		rewards[i] = row[0]
		stats.MeanImprovement += row[1]
		stats.MeanPctImprovement += row[2]
		inspections += int(row[3])
		rejections += int(row[4])
		steps[i] = int(row[5])
	}
	n := float64(B)
	stats.MeanImprovement /= n
	stats.MeanPctImprovement /= n
	if inspections > 0 {
		stats.RejectionRatio = float64(rejections) / float64(inspections)
	}
	up, err := t.ppo.UpdateShard(lo, batch, rewards, steps, ex)
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
	stats.Seconds = time.Since(t.epochT0).Seconds()
	if t.cfg.Flight != nil && t.epochSpanOpen {
		t.epochSpan.Attrs = appendEpochAttrs(t.epochSpan.Attrs, stats)
		t.epochSpan.End(0)
		t.cfg.Flight.EmitSpan(&t.epochSpan)
		t.epochSpan = obs.Span{}
		t.epochSpanOpen = false
	}
	return stats, nil
}
