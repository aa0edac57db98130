package online

import (
	"fmt"
	"math/rand"

	"context"

	"schedinspector/internal/core"
	"schedinspector/internal/workload"
)

// Candidate production and shadow scoring — the two model-touching stages
// of the cycle. Both run entirely off the serving path: the serving
// inspector's weights are immutable, Clone never perturbs its RNG, and the
// only write back into the daemon is the Swap a winning candidate earns.

// retrainCandidate fine-tunes a candidate from the serving model on a
// reconstructed window trace. The trainer is warm-started with
// core.NewTrainerFrom, which clones the serving weights and — critically —
// keeps the serving normalizer, so the feature contract the model was
// deployed under survives retraining on a window whose raw statistics
// differ. The epochs run through the same BeginEpoch / RolloutShard /
// ApplyDeltas phases as offline training, driven by DriveEpochs with an
// empty checkpoint config: nothing is ever written to disk mid-retrain, so
// a crash or cancellation discards the candidate by construction and
// cannot touch the serving checkpoint directory.
func (l *Loop) retrainCandidate(ctx context.Context, serving *core.Inspector, tr *workload.Trace, seed int64) (*core.Inspector, *core.TrainerCheckpoint, error) {
	seqLen := l.cfg.SeqLen
	if seqLen > tr.Len() {
		seqLen = tr.Len()
	}
	cfg := core.TrainConfig{
		Trace:         tr,
		Policy:        l.cfg.Policy,
		Metric:        serving.Norm.Metric,
		RewardKind:    core.PercentageReward,
		FeatureMode:   serving.Mode,
		SeqLen:        seqLen,
		Batch:         l.cfg.Batch,
		LR:            fineTuneLR,
		Seed:          seed,
		TrainFrac:     1, // the holdout was already carved off the window
		MaxInterval:   serving.Norm.MaxInterval,
		MaxRejections: serving.Norm.MaxRejections,
		Workers:       l.cfg.Workers,
	}
	t, err := core.NewTrainerFrom(cfg, serving)
	if err != nil {
		return nil, nil, err
	}
	epoch := 0
	_, err = t.DriveEpochs(ctx, l.cfg.Epochs, core.CheckpointConfig{}, t.RunEpoch, func(core.EpochStats) {
		epoch++
		l.m.retrainEpochs.Inc()
		l.mirror(func(st *Status) { st.RetrainEpochs++ })
		if l.epochHook != nil {
			l.epochHook(epoch)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	// Hand the candidate its own sampling RNG: the trainer's stream dies
	// with the trainer, and the serving collector must never share one.
	cand := t.Inspector().Clone(rand.New(rand.NewSource(cycleSeed(seed, 0x5eed))))
	return cand, t.Checkpoint(), nil
}

// shadowScore evaluates one model on the held-out window trace and
// returns the paper's relative-improvement score (EvalResult
// MeanImprovement on the model's own training metric): how much better
// the trace runs with this inspector filtering decisions than with the
// base policy alone. Candidate and serving model are scored with the same
// config and seed, so the sampled sequences — the "same decisions" of the
// shadow comparison — are identical across the two arms.
func (l *Loop) shadowScore(insp *core.Inspector, tr *workload.Trace, seed int64) (float64, error) {
	seqLen := l.cfg.ShadowSeqLen
	if seqLen > tr.Len() {
		seqLen = tr.Len()
	}
	res, err := core.Evaluate(insp, core.EvalConfig{
		Trace:     tr,
		Policy:    l.cfg.Policy,
		Metric:    insp.Norm.Metric,
		Sequences: l.cfg.ShadowSequences,
		SeqLen:    seqLen,
		// The whole holdout is test data; the epsilon defeats the 0.2
		// zero-value default without excluding any of it.
		TestFrom:      1e-12,
		Seed:          seed,
		MaxInterval:   insp.Norm.MaxInterval,
		MaxRejections: insp.Norm.MaxRejections,
		Workers:       l.cfg.Workers,
	})
	if err != nil {
		return 0, fmt.Errorf("shadow eval on %q: %w", tr.Name, err)
	}
	return res.MeanImprovement(insp.Norm.Metric), nil
}
