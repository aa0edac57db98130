package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"

	"schedinspector/internal/ckpt"
	"schedinspector/internal/metrics"
	"schedinspector/internal/nn"
	"schedinspector/internal/rl"
)

// TrainerCheckpointVersion is the payload schema number written into the
// ckpt container header. Bump it when TrainerCheckpoint changes shape.
const TrainerCheckpointVersion = 1

// TrainerCheckpoint is the full mutable state of a training run — enough
// that killing a run after epoch N and resuming from this snapshot
// produces bit-identical model bytes to never having stopped.
//
// The captured set is deliberately exact:
//
//   - Policy/Value are the network weights (the model itself).
//   - Opt holds both Adam optimizers' first/second moments and step
//     counters; restarting Adam cold would change every post-resume
//     update even with identical weights.
//   - Seed and Epoch pin the RNG: every trajectory stream is derived from
//     (Seed, purpose, epoch, index) via SplitMix64 (see rng.go), so no
//     generator cursor needs saving — the derivation is the cursor.
//   - Mode and Norm are the feature contract the weights were trained
//     under; they make a checkpoint self-describing enough to serve
//     directly (see Inspector) and let Resume reject a mismatched config.
//
// A model file (Inspector.SaveFile) is the same payload with zero Epoch and
// Seed and no Opt: one format, one loader, for models and checkpoints.
type TrainerCheckpoint struct {
	Epoch  int
	Seed   int64
	Mode   FeatureMode
	Norm   Normalizer
	Policy *nn.MLP
	Value  *nn.MLP
	Opt    rl.OptimizerState
}

// Checkpoint snapshots the trainer's state. Everything is deep-copied, so
// the snapshot can be serialized while training continues.
func (t *Trainer) Checkpoint() *TrainerCheckpoint {
	return &TrainerCheckpoint{
		Epoch:  t.epoch,
		Seed:   t.cfg.Seed,
		Mode:   t.cfg.FeatureMode,
		Norm:   t.insp.Norm,
		Policy: t.insp.Agent.Policy.Clone(),
		Value:  t.insp.Agent.Value.Clone(),
		Opt:    t.ppo.OptimizerState(),
	}
}

// Encode serializes the checkpoint payload in ckpt's canonical codec, so
// equal state encodes to equal bytes in any process — what lets a resumed
// run's model file be cmp-equal to an uninterrupted one.
func (c *TrainerCheckpoint) Encode() ([]byte, error) {
	if c.Policy == nil || c.Value == nil {
		return nil, fmt.Errorf("core: encode checkpoint: missing networks")
	}
	var w ckpt.Writer
	w.U64(uint64(c.Epoch))
	w.U64(uint64(c.Seed))
	w.U32(uint32(c.Mode))
	w.F64(c.Norm.MaxEst)
	w.F64(c.Norm.MeanEst)
	w.U64(uint64(c.Norm.MaxProcs))
	w.U64(uint64(c.Norm.MaxRejections))
	w.F64(c.Norm.MaxInterval)
	w.U32(uint32(c.Norm.Metric))
	writeMLP(&w, c.Policy)
	writeMLP(&w, c.Value)
	writeAdam(&w, c.Opt.Policy)
	writeAdam(&w, c.Opt.Value)
	return w.Buf, nil
}

// DecodeTrainerCheckpoint parses a payload previously produced by Encode,
// validating the schema version, its internal consistency and that the
// model can serve (see check). It never returns a partially filled
// checkpoint, and every refusal of a payload matches ckpt.ErrCorrupt.
func DecodeTrainerCheckpoint(version uint32, payload []byte) (*TrainerCheckpoint, error) {
	if version != TrainerCheckpointVersion {
		return nil, fmt.Errorf("core: checkpoint schema version %d, this build reads %d",
			version, TrainerCheckpointVersion)
	}
	r := ckpt.NewReader(payload)
	var c TrainerCheckpoint
	c.Epoch = int(r.U64())
	c.Seed = int64(r.U64())
	c.Mode = FeatureMode(r.U32())
	c.Norm.MaxEst = r.F64()
	c.Norm.MeanEst = r.F64()
	c.Norm.MaxProcs = int(r.U64())
	c.Norm.MaxRejections = int(r.U64())
	c.Norm.MaxInterval = r.F64()
	c.Norm.Metric = metrics.Metric(r.U32())
	c.Policy = readMLP(&r)
	c.Value = readMLP(&r)
	c.Opt.Policy = readAdam(&r)
	c.Opt.Value = readAdam(&r)
	c.check(&r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("core: decode checkpoint: %w", err)
	}
	return &c, nil
}

// check refuses, through r, a well-formed checkpoint that cannot serve: an
// unknown feature mode (before Dim would panic on it), a normalizer no
// trace could produce (its scales divide every feature), networks that do
// not fit the mode or the two-action head, and any non-finite weight — the
// rule the online loop applies to its candidates, without which every
// decision's probabilities are NaN.
func (c *TrainerCheckpoint) check(r *ckpt.Reader) {
	n := c.Norm
	positive := func(v float64) bool { return v > 0 && !math.IsInf(v, 1) }
	switch {
	case r.Err() != nil: // the networks did not decode
	case c.Epoch < 0:
		r.Fail("negative epoch %d", c.Epoch)
	case c.Mode < ManualFeatures || c.Mode > NativeFeatures:
		r.Fail("unknown feature mode %d", int(c.Mode))
	case !positive(n.MaxEst) || !positive(n.MeanEst) || !positive(n.MaxInterval) ||
		n.MaxProcs <= 0 || n.MaxRejections <= 0 || n.Metric < metrics.BSLD || n.Metric > metrics.Util:
		r.Fail("invalid normalizer %+v", n)
	case c.Policy.InputSize() != c.Mode.Dim():
		r.Fail("policy input %d does not match mode %v (%d)", c.Policy.InputSize(), c.Mode, c.Mode.Dim())
	case c.Value.InputSize() != c.Policy.InputSize():
		r.Fail("value input %d, policy input %d", c.Value.InputSize(), c.Policy.InputSize())
	case c.Policy.OutputSize() < 2:
		r.Fail("policy has %d actions, need at least 2", c.Policy.OutputSize())
	case !c.Policy.Finite() || !c.Value.Finite():
		r.Fail("non-finite network parameter")
	}
}

// maxCheckpointDim bounds layer widths read from a checkpoint, so the
// products checked against parameter counts cannot overflow.
const maxCheckpointDim = 1 << 20

func writeLayers(w *ckpt.Writer, s [][]float64) {
	w.U32(uint32(len(s)))
	for _, l := range s {
		w.F64s(l)
	}
}

func writeMLP(w *ckpt.Writer, m *nn.MLP) {
	w.U32(uint32(len(m.Sizes)))
	for _, s := range m.Sizes {
		w.U32(uint32(s))
	}
	w.U32(uint32(len(m.Acts)))
	for _, a := range m.Acts {
		w.U32(uint32(a))
	}
	writeLayers(w, m.W)
	writeLayers(w, m.B)
}

func writeAdam(w *ckpt.Writer, s nn.AdamState) {
	w.U64(uint64(s.T))
	writeLayers(w, s.MW)
	writeLayers(w, s.VW)
	writeLayers(w, s.MB)
	writeLayers(w, s.VB)
}

// readCount reads a u32 count of items that occupy at least min bytes
// each, refusing one the remaining payload cannot back.
func readCount(r *ckpt.Reader, min int) int {
	n := int(r.U32())
	if n > r.Len()/min {
		r.Fail("count %d exceeds the %d bytes left", n, r.Len())
		return 0
	}
	return n
}

func readLayers(r *ckpt.Reader) [][]float64 {
	out := make([][]float64, readCount(r, 4))
	for i := range out {
		out[i] = r.F64s()
	}
	return out
}

func readMLP(r *ckpt.Reader) *nn.MLP {
	m := &nn.MLP{Sizes: make([]int, readCount(r, 4))}
	if r.Err() == nil && len(m.Sizes) < 2 {
		r.Fail("network with %d layer sizes", len(m.Sizes))
	}
	for i := range m.Sizes {
		m.Sizes[i] = int(r.U32())
		if r.Err() == nil && (m.Sizes[i] == 0 || m.Sizes[i] > maxCheckpointDim) {
			r.Fail("layer size %d out of range", m.Sizes[i])
		}
	}
	m.Acts = make([]nn.Activation, readCount(r, 4))
	for i := range m.Acts {
		m.Acts[i] = nn.Activation(r.U32())
		if r.Err() == nil && m.Acts[i] > nn.ReLU {
			r.Fail("unknown activation %d", m.Acts[i])
		}
	}
	m.W = readLayers(r)
	m.B = readLayers(r)
	if r.Err() != nil {
		return nil
	}
	if len(m.Acts) != len(m.Sizes)-1 || len(m.W) != len(m.Acts) || len(m.B) != len(m.Acts) {
		r.Fail("network has %d activations, %d weight and %d bias layers, want %d",
			len(m.Acts), len(m.W), len(m.B), len(m.Sizes)-1)
		return nil
	}
	for l := range m.W {
		if len(m.W[l]) != m.Sizes[l]*m.Sizes[l+1] || len(m.B[l]) != m.Sizes[l+1] {
			r.Fail("layer %d has wrong parameter count", l)
			return nil
		}
	}
	return m
}

// readAdam leaves the moments' shapes and step count to Adam.Restore, the
// only consumer of optimizer state.
func readAdam(r *ckpt.Reader) nn.AdamState {
	return nn.AdamState{T: int(r.U64()), MW: readLayers(r), VW: readLayers(r), MB: readLayers(r), VB: readLayers(r)}
}

// SaveCheckpoint writes the trainer's state to dir (created if needed) as
// ckpt-<epoch>.ckpt through the atomic, CRC-guarded ckpt container, and
// returns the file path.
func (t *Trainer) SaveCheckpoint(dir string) (string, error) {
	c := t.Checkpoint()
	payload, err := c.Encode()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("core: checkpoint dir: %w", err)
	}
	path := filepath.Join(dir, ckpt.FileName(c.Epoch))
	if err := ckpt.Write(path, TrainerCheckpointVersion, payload); err != nil {
		return "", err
	}
	return path, nil
}

// LoadTrainerCheckpoint reads one checkpoint or model file. Torn, corrupt
// or unservable files fail with an error matching ckpt.ErrCorrupt.
func LoadTrainerCheckpoint(path string) (*TrainerCheckpoint, error) {
	version, payload, err := ckpt.Read(path)
	if err != nil {
		return nil, err
	}
	c, err := DecodeTrainerCheckpoint(version, payload)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// LoadServable loads a servable inspector from path: a model file
// (Inspector.SaveFile, schedinspect train -model) or a trainer checkpoint —
// one format, so inspectord serves a training run's checkpoints and the
// online loop's promoted generations without an export step. The returned
// model uses rng for any sampling-mode exploration. Loading never draws
// from rng — the networks come from the payload, not from fresh
// initialization — so a caller may hand over an rng that concurrent
// decision paths are sampling from under their own lock (inspectord's
// hot-reload does exactly that).
func LoadServable(path string, rng *rand.Rand) (*Inspector, error) {
	c, err := LoadTrainerCheckpoint(path)
	if err != nil {
		return nil, err
	}
	return c.Inspector(rng), nil
}

// LatestTrainerCheckpoint returns the newest loadable checkpoint in dir
// and its path, skipping corrupt files (a torn final write falls back to
// the previous checkpoint). With no loadable checkpoint the error matches
// ckpt.ErrNoCheckpoint.
func LatestTrainerCheckpoint(dir string) (*TrainerCheckpoint, string, error) {
	entry, version, payload, err := ckpt.Latest(dir)
	if err != nil {
		return nil, "", err
	}
	c, err := DecodeTrainerCheckpoint(version, payload)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", entry.Path, err)
	}
	return c, entry.Path, nil
}

// Inspector materializes the checkpointed model as a servable inspector —
// how inspectord serves straight from a training checkpoint. rng drives
// sampling-mode decisions and may be nil for greedy-only use. The
// checkpoint's networks are deep-copied so the snapshot stays immutable.
func (c *TrainerCheckpoint) Inspector(rng *rand.Rand) *Inspector {
	return &Inspector{
		Agent: rl.AgentFromNets(c.Policy.Clone(), c.Value.Clone(), rng),
		Mode:  c.Mode,
		Norm:  c.Norm,
	}
}

// Resume installs a checkpoint into the trainer, which must have been
// built with the same configuration the checkpointed run used. Seed,
// feature mode, normalizer and network shapes are all verified — a
// mismatch would not crash, it would silently break the bit-identical
// kill-and-resume guarantee, so each is a hard error. On success the
// trainer continues from epoch c.Epoch+1 exactly as the original run
// would have.
func (t *Trainer) Resume(c *TrainerCheckpoint) error {
	switch {
	case c.Seed != t.cfg.Seed:
		return fmt.Errorf("core: resume: checkpoint seed %d, trainer configured with %d", c.Seed, t.cfg.Seed)
	case c.Mode != t.cfg.FeatureMode:
		return fmt.Errorf("core: resume: checkpoint feature mode %v, trainer configured with %v",
			c.Mode, t.cfg.FeatureMode)
	case c.Norm != t.insp.Norm:
		return fmt.Errorf("core: resume: checkpoint normalizer %+v does not match the trainer's trace (%+v)",
			c.Norm, t.insp.Norm)
	case !reflect.DeepEqual(c.Policy.Sizes, t.insp.Agent.Policy.Sizes):
		return fmt.Errorf("core: resume: checkpoint policy layers %v, trainer configured with %v",
			c.Policy.Sizes, t.insp.Agent.Policy.Sizes)
	case !reflect.DeepEqual(c.Value.Sizes, t.insp.Agent.Value.Sizes):
		return fmt.Errorf("core: resume: checkpoint value layers %v, trainer configured with %v",
			c.Value.Sizes, t.insp.Agent.Value.Sizes)
	}
	// Install weights first; RestoreOptimizer validates moment shapes
	// against the (already shape-checked) networks, so a failure here
	// leaves the trainer unusable only in ways the caller was warned of.
	t.insp.Agent.Policy = c.Policy.Clone()
	t.insp.Agent.Value = c.Value.Clone()
	if err := t.ppo.RestoreOptimizer(c.Opt); err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
	t.epoch = c.Epoch
	return nil
}

// ResumeLatest is the one-call resume path: load the newest valid
// checkpoint from dir and install it, returning the checkpoint for
// inspection (its Epoch tells the caller how much work remains).
func (t *Trainer) ResumeLatest(dir string) (*TrainerCheckpoint, error) {
	c, _, err := LatestTrainerCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	if err := t.Resume(c); err != nil {
		return nil, err
	}
	return c, nil
}

// ErrInterrupted reports that TrainCtx stopped early because its context
// was canceled — after finishing the in-flight epoch and (when a
// checkpoint directory is configured) persisting a checkpoint. An error
// matching ErrInterrupted therefore guarantees progress is safe on disk;
// if the final save fails, TrainCtx returns the save error instead, and
// it does NOT match ErrInterrupted.
var ErrInterrupted = errors.New("core: training interrupted")

// CheckpointConfig controls durable checkpointing during TrainCtx.
type CheckpointConfig struct {
	// Dir is the checkpoint directory. Empty disables checkpointing.
	Dir string
	// Every saves a checkpoint after each Every-th epoch (0 = only on
	// interruption and completion).
	Every int
	// Keep bounds how many checkpoint files are retained, oldest pruned
	// first (0 = keep all).
	Keep int
}

// EpochFunc produces one training epoch's statistics. It is the pluggable
// heart of DriveEpochs: the single-process trainer passes Trainer.RunEpoch,
// a distributed worker passes its rollout-shard → exchange → reduce → apply
// cycle (internal/dist). Implementations must leave the trainer on an epoch
// boundary on success; on error the epoch is considered failed and no
// checkpoint is written (the trainer's weights are still those of the last
// completed epoch, so the newest on-disk checkpoint remains the truth).
type EpochFunc func() (EpochStats, error)

// DriveEpochs is the one epoch loop every training front-end shares —
// Train, TrainCtx and the distributed worker loop all delegate here, so
// checkpointing and interrupt handling exist exactly once. It runs up to
// epochs iterations of run: a checkpoint is written to ck.Dir every
// ck.Every epochs (atomically — a crash mid-save leaves the previous
// file), and when ctx is canceled (SIGINT/SIGTERM in the CLI) the
// in-flight epoch finishes, a final checkpoint is saved, and the loop
// returns the stats so far with an error matching ErrInterrupted.
// Completion also writes a final checkpoint, so a follow-up run can extend
// training seamlessly.
//
// Epochs are atomic with respect to interruption: checkpoints land only
// on epoch boundaries, which is what keeps kill-and-resume bit-identical
// to an uninterrupted run.
func (t *Trainer) DriveEpochs(ctx context.Context, epochs int, ck CheckpointConfig, run EpochFunc, cb func(EpochStats)) ([]EpochStats, error) {
	if epochs < 0 {
		return nil, fmt.Errorf("core: DriveEpochs epochs = %d, must be >= 0", epochs)
	}
	out := make([]EpochStats, 0, epochs)
	save := func() error {
		if ck.Dir == "" {
			return nil
		}
		if _, err := t.SaveCheckpoint(ck.Dir); err != nil {
			return err
		}
		return ckpt.Prune(ck.Dir, ck.Keep)
	}
	for i := 0; i < epochs; i++ {
		if err := ctx.Err(); err != nil {
			// A failed save must NOT match ErrInterrupted: callers treat
			// ErrInterrupted as "progress is safe on disk" (the CLI prints
			// a resume hint and exits 0), so a disk-full or permission
			// error here has to surface as a plain failure.
			if serr := save(); serr != nil {
				return out, fmt.Errorf("core: training interrupted after epoch %d, but the final checkpoint save failed (progress NOT persisted): %w", t.epoch, serr)
			}
			return out, fmt.Errorf("%w after epoch %d: %w", ErrInterrupted, t.epoch, err)
		}
		st, err := run()
		if err != nil {
			return out, err
		}
		out = append(out, st)
		if cb != nil {
			cb(st)
		}
		if ck.Dir != "" && ck.Every > 0 && t.epoch%ck.Every == 0 && i != epochs-1 {
			if err := save(); err != nil {
				return out, err
			}
		}
	}
	if err := save(); err != nil {
		return out, err
	}
	return out, nil
}

// TrainCtx runs up to epochs single-process training epochs through
// DriveEpochs — see there for the checkpoint and interruption contract.
func (t *Trainer) TrainCtx(ctx context.Context, epochs int, ck CheckpointConfig, cb func(EpochStats)) ([]EpochStats, error) {
	return t.DriveEpochs(ctx, epochs, ck, t.RunEpoch, cb)
}
