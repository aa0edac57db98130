// Package dist is the DD-PPO-style multi-process training engine: a set
// of coordinator-less worker processes that each roll out a shard of every
// epoch's trajectory batch, compute the PPO update's gradients over that
// shard alone, and all-reduce them — so every replica holds bit-identical
// weights and Adam state at every epoch boundary, pinned against the
// single-process Trainer.Train by the golden equivalence suite.
//
// Floating-point addition is not associative, so a gradient all-reduce
// matches the single-process update byte for byte only if both add in the
// same order. They do: rl.PPO takes every sum of an update over one fixed
// binary tree whose leaves are the batch's trajectories (internal/rl,
// tree.go), in one process or many. A rank folds the complete subtrees
// that lie inside its contiguous shard — one node when shards are aligned
// powers of two, at most 2·log2(Batch) otherwise — sends them to every
// peer, and folds the nodes of all ranks to the same root the
// single-process trainer reaches. Per epoch that is one round for the
// trajectories' scalar statistics, one for the advantage moments, one per
// policy pass (the KL early stop reads the reduced KL, so ranks stop on
// the same pass) and one per value pass: a few hundred kilobytes however
// long the trajectories are, where shipping the trajectories grows with
// Batch x SeqLen x features. No observation leaves the rank that rolled
// it out, and no rank repeats another's share of the update, which is
// ~95 % of an epoch (bench/README.md).
//
// A post-apply digest round (FNV-64a over the canonical checkpoint bytes)
// verifies the replicas actually agree each epoch; any drift — a cosmic
// ray, a mixed-build fleet — surfaces as an error matching ErrDiverged
// instead of workers silently training different models. A peer that
// fails between two rounds leaves the survivors part-way through the
// Adam steps of that epoch: RunEpoch returns the *PeerError,
// core.Trainer.DriveEpochs saves nothing on an epoch error, and the fleet
// restarts from the last checkpoint, which was taken at an epoch boundary.
package dist

import (
	"context"
	"errors"
	"fmt"
	"time"

	"schedinspector/internal/core"
	"schedinspector/internal/rl"
)

// ErrDiverged is the sentinel matched (via errors.Is) by post-apply digest
// mismatches: two replicas no longer hold identical trainer state.
var ErrDiverged = errors.New("dist: replica state diverged")

// DivergenceError reports which peer's post-apply state digest disagreed
// with the local one. It matches ErrDiverged with errors.Is.
type DivergenceError struct {
	Epoch         int
	Rank          int // the disagreeing peer
	Local, Remote Digest
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("dist: replica state diverged at epoch %d: rank %d digest %016x/%d bytes, local %016x/%d bytes",
		e.Epoch, e.Rank, e.Remote.Sum, e.Remote.Len, e.Local.Sum, e.Local.Len)
}

// Is reports whether target is ErrDiverged.
func (e *DivergenceError) Is(target error) bool { return target == ErrDiverged }

// Options parameterizes the distributed engine's transport and telemetry.
type Options struct {
	// Network forces the peer-address network ("tcp" or "unix"); empty
	// infers it per address (filesystem-path shapes are unix sockets).
	Network string

	// DialTimeout bounds mesh establishment — listeners coming up, dials
	// retrying, handshakes completing (default 30s).
	DialTimeout time.Duration

	// ExchangeTimeout bounds each exchange round of an epoch; a peer that
	// dies or stalls longer than this yields a *PeerError instead of a
	// hang (default 10m — it must cover the slowest peer's rollout).
	ExchangeTimeout time.Duration

	// Metrics, when non-nil, receives exchange latency/volume, straggler
	// wait and failure observations (see NewMetrics).
	Metrics *Metrics

	// Logf, when non-nil, receives progress lines (mesh up, epoch done).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.DialTimeout == 0 {
		o.DialTimeout = 30 * time.Second
	}
	if o.ExchangeTimeout == 0 {
		o.ExchangeTimeout = 10 * time.Minute
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Worker couples a trainer to a connected mesh and runs the distributed
// epoch cycle. Build one with NewWorker, then call Train.
type Worker struct {
	t    *core.Trainer
	mesh *Mesh
	opt  Options

	enc     []byte        // the outgoing reduce frame, reused from round to round
	blocked time.Duration // time spent inside the current epoch's rounds
}

// NewWorker connects the mesh for t's configured rank/world/peers and
// returns the worker. The trainer's config must carry World > 1 with a
// full peer list (TrainConfig validation enforces the shape); every
// cooperating process must construct its trainer from an identical config
// apart from Rank — the handshake fingerprint rejects anything else.
// Close the worker when done.
func NewWorker(ctx context.Context, t *core.Trainer, opt Options) (*Worker, error) {
	cfg := t.Config()
	if cfg.World < 2 {
		return nil, fmt.Errorf("dist: TrainConfig.World = %d; the distributed engine needs World >= 2 (use Trainer.TrainCtx single-process)", cfg.World)
	}
	opt = opt.withDefaults()
	mesh, err := Connect(ctx, cfg.Rank, cfg.Peers, Fingerprint(cfg), opt)
	if err != nil {
		return nil, err
	}
	return &Worker{t: t, mesh: mesh, opt: opt}, nil
}

// Close tears down the worker's mesh.
func (w *Worker) Close() error { return w.mesh.Close() }

// round runs one all-to-all exchange of payload and accounts for the time
// it blocked this rank.
func (w *Worker) round(payload []byte) ([][]byte, error) {
	frames, wait, err := w.mesh.Exchange(payload)
	w.opt.Metrics.observeExchange(wait.Seconds())
	w.blocked += wait
	return frames, err
}

// exchange returns the rl.Exchange of one epoch: a round sends this rank's
// nodes to every peer and returns the nodes of all ranks in rank order,
// which is index order.
func (w *Worker) exchange(epoch int) rl.Exchange {
	cfg := w.t.Config()
	return func(r rl.Round, own []rl.Node) ([]rl.Node, error) {
		w.enc = appendReduce(w.enc[:0], reduceMsg{Epoch: epoch, Round: r, Nodes: own})
		frames, err := w.round(w.enc)
		if err != nil {
			return nil, err
		}
		return gather(cfg.Batch, cfg.Rank, epoch, r, own, frames)
	}
}

// gather decodes one round's frames (one per rank; the local rank's entry
// is ignored in favour of own) into the nodes of all ranks. A peer must be
// in the same epoch and round and its nodes must tile exactly the shard
// the canonical split gives it, so a replayed, skipped or mis-sharded
// frame is refused, naming the peer, before it can enter a sum.
func gather(batch, rank, epoch int, r rl.Round, own []rl.Node, frames [][]byte) ([]rl.Node, error) {
	var all []rl.Node
	for p, frame := range frames {
		if p == rank {
			all = append(all, own...)
			continue
		}
		m, err := decodeReduce(frame)
		if err != nil {
			return nil, peerErr(p, "decode", err)
		}
		if m.Epoch != epoch || m.Round != r {
			return nil, peerErr(p, "reduce", fmt.Errorf("peer is in epoch %d phase %d pass %d, this rank in epoch %d phase %d pass %d",
				m.Epoch, m.Round.Phase, m.Round.Iter, epoch, r.Phase, r.Iter))
		}
		lo, hi := core.ShardRange(batch, len(frames), p)
		next := lo
		for _, nd := range m.Nodes {
			if nd.Lo != next || nd.Hi <= nd.Lo || nd.Hi > hi {
				return nil, peerErr(p, "reduce", fmt.Errorf("node [%d, %d) does not continue the peer's shard [%d, %d) at %d",
					nd.Lo, nd.Hi, lo, hi, next))
			}
			next = nd.Hi
		}
		if next != hi {
			return nil, peerErr(p, "reduce", fmt.Errorf("nodes cover [%d, %d) of the peer's shard [%d, %d)", lo, next, lo, hi))
		}
		all = append(all, m.Nodes...)
	}
	return all, nil
}

// RunEpoch executes one distributed epoch: roll out the local shard, apply
// it through the exchange — one round gathers the trajectories' scalar
// statistics, then the PPO update all-reduces its advantage moments and
// each pass's gradients — and finally exchange and verify post-apply state
// digests. It is the distributed counterpart of core.Trainer.RunEpoch and
// satisfies core.EpochFunc.
func (w *Worker) RunEpoch() (core.EpochStats, error) {
	t, cfg := w.t, w.t.Config()
	epoch := t.BeginEpoch()
	w.blocked = 0
	defer func() { w.opt.Metrics.observeStraggler(w.blocked.Seconds()) }()
	lo, hi := core.ShardRange(cfg.Batch, cfg.World, cfg.Rank)
	local, err := t.RolloutShard(lo, hi)
	if err != nil {
		return core.EpochStats{Epoch: epoch}, err
	}
	stats, err := t.ApplyShard(local, w.exchange(epoch))
	if err != nil {
		return stats, err
	}

	// Replicas stepped from the same reduced gradients, so their digests
	// must agree; checking every epoch turns any drift into a prompt typed
	// error at the boundary where it happened.
	dg, err := StateDigest(t)
	if err != nil {
		return stats, err
	}
	dframes, err := w.round(encodeDigest(digestMsg{Epoch: epoch, Rank: cfg.Rank, State: dg}))
	if err != nil {
		return stats, err
	}
	for p, frame := range dframes {
		if p == cfg.Rank {
			continue
		}
		m, err := decodeDigest(frame)
		if err != nil {
			return stats, peerErr(p, "decode", err)
		}
		if m.Epoch != epoch {
			return stats, peerErr(p, "digest", fmt.Errorf("epoch %d, expected %d", m.Epoch, epoch))
		}
		if m.State != dg {
			return stats, &DivergenceError{Epoch: epoch, Rank: p, Local: dg, Remote: m.State}
		}
	}
	w.opt.Metrics.observeEpoch()
	w.opt.Logf("dist: rank %d epoch %d done (barrier %.3fs)", cfg.Rank, epoch, w.blocked.Seconds())
	return stats, nil
}

// Train runs epochs distributed epochs through the shared phase driver
// (core.Trainer.DriveEpochs), so checkpointing and interruption behave
// exactly as in single-process TrainCtx. Two distributed adjustments:
// periodic checkpoints are written by rank 0 only (every rank's state is
// identical, so one writer suffices and a shared checkpoint directory
// sees no redundant churn), while the final and interrupt saves run on
// every rank — the bytes are identical and the container write is atomic,
// so concurrent writers to a shared directory are safe, and per-rank
// directories stay self-contained for restart.
func (w *Worker) Train(ctx context.Context, epochs int, ck core.CheckpointConfig, cb func(core.EpochStats)) ([]core.EpochStats, error) {
	if w.t.Config().Rank != 0 {
		ck.Every = 0
	}
	return w.t.DriveEpochs(ctx, epochs, ck, w.RunEpoch, cb)
}

// Train is the package-level convenience: connect, train, close. The
// trainer's config selects single-process (World <= 1, plain TrainCtx) or
// distributed execution, so callers can drive both paths through one
// entry point.
func Train(ctx context.Context, t *core.Trainer, epochs int, ck core.CheckpointConfig, opt Options, cb func(core.EpochStats)) ([]core.EpochStats, error) {
	if t.Config().World < 2 {
		return t.TrainCtx(ctx, epochs, ck, cb)
	}
	w, err := NewWorker(ctx, t, opt)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	return w.Train(ctx, epochs, ck, cb)
}
