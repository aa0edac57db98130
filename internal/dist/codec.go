package dist

import (
	"fmt"
	"hash/fnv"

	"schedinspector/internal/ckpt"
	"schedinspector/internal/core"
	"schedinspector/internal/rl"
)

// WireVersion is the dist frame schema number, carried as the version
// field of every ckpt container frame on the wire. Bump it whenever the
// message layout below changes; peers built at different versions refuse
// each other at the first frame instead of mis-decoding.
const WireVersion = 2

// Every frame payload is [kind u8][body...] in ckpt's canonical codec
// (integers big-endian, floats as IEEE-754 bit patterns) — the checkpoint
// files' own writer and reader, so a byte stream has exactly one meaning on
// every architecture.
const (
	msgHello  = 1 // handshake: who is dialing, and over which config
	msgReduce = 2 // one round's partial sums over a rank's shard
	msgDigest = 3 // post-apply replica state digest
)

// maxFrame bounds how large a peer frame the transport will believe. The
// largest frames carry at most 2·log2(Batch) gradient vectors of one
// network (8 KB each at the paper's sizes) or six scalars per trajectory;
// 64 MiB leaves room for networks a thousand times larger while still
// refusing a corrupt length field's absurd allocation.
const maxFrame = 64 << 20

// hello is the handshake message each connection opens with. The
// fingerprint hashes the training parameters every replica must agree on;
// a mismatch means the processes would silently train different models, so
// the connection is refused instead.
type hello struct {
	World       int
	Rank        int
	Fingerprint uint64
}

// Fingerprint hashes everything in a TrainConfig that shapes the epoch
// computation — what is simulated, how it is rewarded and featurized —
// and the PPO constants this binary was built with, which between them
// also fix how many exchange rounds an epoch has. Two workers that agree
// on it (and on the wire version, checked per frame) run bit-identical
// epochs in lockstep. cfg is a Trainer.Config(): defaults applied, so that
// an unset field and its default hash alike.
func Fingerprint(cfg core.TrainConfig) uint64 {
	var w ckpt.Writer
	w.U64(uint64(cfg.Seed))
	w.U32(uint32(cfg.Batch))
	w.U32(uint32(cfg.SeqLen))
	w.U32(uint32(cfg.World))
	w.F64(cfg.LR)
	w.F64(cfg.TrainFrac)
	// The hidden sizes as an empty list, standing for core.Hidden: these
	// are the bytes TestFingerprintGolden pins. A peer of another shape
	// fails its first policy round on the gradients' length (rl's fold).
	w.U32(0)
	if cfg.Policy != nil {
		w.Str(cfg.Policy.Name())
	}
	w.U32(uint32(cfg.Metric))
	w.U32(uint32(cfg.RewardKind))
	w.U32(uint32(cfg.FeatureMode))
	w.Bool(cfg.Backfill)
	w.F64(cfg.MaxInterval)
	w.U32(uint32(cfg.MaxRejections))
	w.F64(cfg.LR) // again, in the PPO recipe's place; the golden pins both
	w.F64(rl.ClipRatio)
	w.U32(rl.PolicyIters)
	w.U32(rl.ValueIters)
	w.F64(rl.TargetKL)
	w.F64(rl.EntropyCoef)
	w.F64(rl.MaxGradNorm)
	w.Bool(cfg.NoCritic)
	h := fnv.New64a()
	h.Write(w.Buf)
	return h.Sum64()
}

func encodeHello(h hello) []byte {
	var w ckpt.Writer
	w.U8(msgHello)
	w.U32(uint32(h.World))
	w.U32(uint32(h.Rank))
	w.U64(h.Fingerprint)
	return w.Buf
}

func decodeHello(payload []byte) (hello, error) {
	r := ckpt.NewReader(payload)
	expectKind(&r, msgHello)
	h := hello{World: int(r.U32()), Rank: int(r.U32()), Fingerprint: r.U64()}
	if err := r.Done(); err != nil {
		return hello{}, fmt.Errorf("dist: hello: %w", err)
	}
	return h, nil
}

// reduceMsg is one rank's contribution to one exchange round of an epoch:
// the partial sums over its shard, as tree nodes in index order.
type reduceMsg struct {
	Epoch int
	Round rl.Round
	Nodes []rl.Node
}

// appendReduce appends m's encoding to buf, which the caller reuses from
// round to round.
func appendReduce(buf []byte, m reduceMsg) []byte {
	w := ckpt.Writer{Buf: buf}
	w.U8(msgReduce)
	w.U64(uint64(m.Epoch))
	w.U8(uint8(m.Round.Phase))
	w.U32(uint32(m.Round.Iter))
	w.U32(uint32(len(m.Nodes)))
	for _, nd := range m.Nodes {
		w.U32(uint32(nd.Lo))
		w.U32(uint32(nd.Hi))
		w.F64s(nd.Vec)
	}
	return w.Buf
}

// decodeReduce decodes one reduce frame. Every count is checked against
// the bytes that remain before anything is sized by it, so a hostile frame
// cannot demand more memory than it occupies.
func decodeReduce(payload []byte) (reduceMsg, error) {
	r := ckpt.NewReader(payload)
	expectKind(&r, msgReduce)
	m := reduceMsg{Epoch: int(r.U64())}
	m.Round = rl.Round{Phase: rl.Phase(r.U8()), Iter: int(r.U32())}
	n := int(r.U32())
	if n > r.Len()/12 {
		r.Fail("reduce frame claims %d nodes in %d bytes", n, r.Len())
		n = 0
	}
	m.Nodes = make([]rl.Node, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Nodes = append(m.Nodes, rl.Node{Lo: int(r.U32()), Hi: int(r.U32()), Vec: r.F64s()})
	}
	if err := r.Done(); err != nil {
		return reduceMsg{}, fmt.Errorf("dist: reduce: %w", err)
	}
	return m, nil
}

// Digest summarizes a replica's full trainer state (the canonical
// checkpoint encoding: weights, Adam moments, epoch counter) for the
// post-apply divergence check. FNV-64a plus the exact byte length is cheap
// per epoch and catches any bit drift.
type Digest struct {
	Sum uint64
	Len int
}

// StateDigest digests the canonical checkpoint encoding of t's state.
func StateDigest(t *core.Trainer) (Digest, error) {
	payload, err := t.Checkpoint().Encode()
	if err != nil {
		return Digest{}, err
	}
	h := fnv.New64a()
	h.Write(payload)
	return Digest{Sum: h.Sum64(), Len: len(payload)}, nil
}

type digestMsg struct {
	Epoch int
	Rank  int
	State Digest
}

func encodeDigest(m digestMsg) []byte {
	var w ckpt.Writer
	w.U8(msgDigest)
	w.U64(uint64(m.Epoch))
	w.U32(uint32(m.Rank))
	w.U64(m.State.Sum)
	w.U64(uint64(m.State.Len))
	return w.Buf
}

func decodeDigest(payload []byte) (digestMsg, error) {
	r := ckpt.NewReader(payload)
	expectKind(&r, msgDigest)
	m := digestMsg{Epoch: int(r.U64()), Rank: int(r.U32())}
	m.State = Digest{Sum: r.U64(), Len: int(r.U64())}
	if err := r.Done(); err != nil {
		return digestMsg{}, fmt.Errorf("dist: digest: %w", err)
	}
	return m, nil
}

// expectKind reads a payload's kind byte and fails r unless it is kind.
func expectKind(r *ckpt.Reader, kind uint8) {
	if k := r.U8(); r.Err() == nil && k != kind {
		r.Fail("expected message kind %d, got %d", kind, k)
	}
}
