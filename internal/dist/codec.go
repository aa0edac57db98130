package dist

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"schedinspector/internal/core"
	"schedinspector/internal/rl"
)

// WireVersion is the dist frame schema number, carried as the version
// field of every ckpt container frame on the wire. Bump it whenever the
// message layout below changes; peers built at different versions refuse
// each other at the first frame instead of mis-decoding.
const WireVersion = 2

// Every frame payload is [kind u8][body...], all integers big-endian and
// floats as IEEE-754 bit patterns — the same canonical encoding the
// checkpoint codec uses, so a byte stream has exactly one meaning on every
// architecture.
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

// binWriter appends the canonical big-endian encoding.
type binWriter struct{ buf []byte }

func (w *binWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *binWriter) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *binWriter) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *binWriter) f64(v float64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, math.Float64bits(v))
}
func (w *binWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// binReader consumes the canonical encoding, tracking one sticky error so
// decode paths read linearly and check once at the end.
type binReader struct {
	data []byte
	err  error
}

func (r *binReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.data) < n {
		r.err = fmt.Errorf("dist: message truncated: need %d bytes, have %d", n, len(r.data))
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

func (r *binReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *binReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *binReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *binReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *binReader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.data) != 0 {
		return fmt.Errorf("dist: message has %d trailing bytes", len(r.data))
	}
	return nil
}

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
// computation — what is simulated, how it is rewarded and featurized, and
// every PPO hyperparameter, which between them also fix how many exchange
// rounds an epoch has. Two workers that agree on it (and on the wire
// version, checked per frame) run bit-identical epochs in lockstep. cfg is
// a Trainer.Config(): defaults applied, so that an unset field and its
// default hash alike.
func Fingerprint(cfg core.TrainConfig) uint64 {
	var w binWriter
	w.u64(uint64(cfg.Seed))
	w.u32(uint32(cfg.Batch))
	w.u32(uint32(cfg.SeqLen))
	w.u32(uint32(cfg.World))
	w.f64(cfg.LR)
	w.f64(cfg.TrainFrac)
	w.u32(uint32(len(cfg.Hidden)))
	for _, h := range cfg.Hidden {
		w.u32(uint32(h))
	}
	if cfg.Policy != nil {
		w.u32(uint32(len(cfg.Policy.Name())))
		w.buf = append(w.buf, cfg.Policy.Name()...)
	}
	w.u32(uint32(cfg.Metric))
	w.u32(uint32(cfg.RewardKind))
	w.u32(uint32(cfg.FeatureMode))
	w.bool(cfg.Backfill)
	w.f64(cfg.MaxInterval)
	w.u32(uint32(cfg.MaxRejections))
	w.f64(cfg.PPO.LR)
	w.f64(cfg.PPO.ClipRatio)
	w.u32(uint32(cfg.PPO.PolicyIters))
	w.u32(uint32(cfg.PPO.ValueIters))
	w.f64(cfg.PPO.TargetKL)
	w.f64(cfg.PPO.EntropyCoef)
	w.f64(cfg.PPO.MaxGradNorm)
	w.bool(cfg.PPO.NoCritic)
	h := fnv.New64a()
	h.Write(w.buf)
	return h.Sum64()
}

func encodeHello(h hello) []byte {
	var w binWriter
	w.u8(msgHello)
	w.u32(uint32(h.World))
	w.u32(uint32(h.Rank))
	w.u64(h.Fingerprint)
	return w.buf
}

func decodeHello(payload []byte) (hello, error) {
	r := &binReader{data: payload}
	if k := r.u8(); r.err == nil && k != msgHello {
		return hello{}, fmt.Errorf("dist: expected hello, got message kind %d", k)
	}
	h := hello{World: int(r.u32()), Rank: int(r.u32()), Fingerprint: r.u64()}
	if err := r.done(); err != nil {
		return hello{}, err
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
	w := binWriter{buf: buf}
	w.u8(msgReduce)
	w.u64(uint64(m.Epoch))
	w.u8(uint8(m.Round.Phase))
	w.u32(uint32(m.Round.Iter))
	w.u32(uint32(len(m.Nodes)))
	for _, nd := range m.Nodes {
		w.u32(uint32(nd.Lo))
		w.u32(uint32(nd.Hi))
		w.u32(uint32(len(nd.Vec)))
		for _, v := range nd.Vec {
			w.f64(v)
		}
	}
	return w.buf
}

// decodeReduce decodes one reduce frame. Every count is checked against
// the bytes that remain before anything is sized by it, so a hostile frame
// cannot demand more memory than it occupies.
func decodeReduce(payload []byte) (reduceMsg, error) {
	r := &binReader{data: payload}
	if k := r.u8(); r.err == nil && k != msgReduce {
		return reduceMsg{}, fmt.Errorf("dist: expected reduce, got message kind %d", k)
	}
	m := reduceMsg{Epoch: int(r.u64())}
	m.Round = rl.Round{Phase: rl.Phase(r.u8()), Iter: int(r.u32())}
	n := int(r.u32())
	if r.err == nil && (n < 0 || n > len(r.data)/12) {
		return reduceMsg{}, fmt.Errorf("dist: reduce frame claims %d nodes in %d bytes", n, len(r.data))
	}
	m.Nodes = make([]rl.Node, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		nd := rl.Node{Lo: int(r.u32()), Hi: int(r.u32())}
		width := int(r.u32())
		if r.err == nil && (width < 0 || width > len(r.data)/8) {
			return reduceMsg{}, fmt.Errorf("dist: node claims %d values in %d bytes", width, len(r.data))
		}
		nd.Vec = make([]float64, width)
		for k := range nd.Vec {
			nd.Vec[k] = r.f64()
		}
		m.Nodes = append(m.Nodes, nd)
	}
	if err := r.done(); err != nil {
		return reduceMsg{}, err
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
	var w binWriter
	w.u8(msgDigest)
	w.u64(uint64(m.Epoch))
	w.u32(uint32(m.Rank))
	w.u64(m.State.Sum)
	w.u64(uint64(m.State.Len))
	return w.buf
}

func decodeDigest(payload []byte) (digestMsg, error) {
	r := &binReader{data: payload}
	if k := r.u8(); r.err == nil && k != msgDigest {
		return digestMsg{}, fmt.Errorf("dist: expected digest, got message kind %d", k)
	}
	m := digestMsg{Epoch: int(r.u64()), Rank: int(r.u32())}
	m.State = Digest{Sum: r.u64(), Len: int(r.u64())}
	if err := r.done(); err != nil {
		return digestMsg{}, err
	}
	return m, nil
}
