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
const WireVersion = 1

// Every frame payload is [kind u8][body...], all integers big-endian and
// floats as IEEE-754 bit patterns — the same canonical encoding the
// checkpoint codec uses, so a byte stream has exactly one meaning on every
// architecture.
const (
	msgHello  = 1 // handshake: who is dialing, and over which config
	msgShard  = 2 // one epoch's trajectory deltas for a rank's shard
	msgDigest = 3 // post-apply replica state digest
)

// maxFrame bounds how large a peer frame the transport will believe.
// Shards carry per-step observation vectors, so frames scale with
// Batch x SeqLen x features; 256 MiB is far above any real epoch while
// still refusing a corrupt length field's absurd allocation.
const maxFrame = 256 << 20

// binWriter appends the canonical big-endian encoding.
type binWriter struct{ buf []byte }

func (w *binWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *binWriter) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *binWriter) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *binWriter) f64(v float64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, math.Float64bits(v))
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

// Fingerprint hashes the TrainConfig fields that determine the epoch
// computation: any two workers agreeing on these (and on the wire version,
// checked per frame) produce bit-identical epochs.
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

// shardMsg is one worker's rollout contribution for one epoch: the
// TrajDeltas of its index range, in index order.
type shardMsg struct {
	Epoch  int
	Rank   int
	Lo, Hi int
	Deltas []core.TrajDelta
}

func encodeShard(m shardMsg) []byte {
	w := binWriter{buf: make([]byte, 0, 1<<16)}
	w.u8(msgShard)
	w.u64(uint64(m.Epoch))
	w.u32(uint32(m.Rank))
	w.u32(uint32(m.Lo))
	w.u32(uint32(m.Hi))
	w.u32(uint32(len(m.Deltas)))
	for i := range m.Deltas {
		d := &m.Deltas[i]
		w.u32(uint32(d.Index))
		w.f64(d.Reward)
		w.f64(d.Improvement)
		w.f64(d.PctImprovement)
		w.u32(uint32(d.Inspections))
		w.u32(uint32(d.Rejections))
		w.u32(uint32(len(d.Steps)))
		for j := range d.Steps {
			s := &d.Steps[j]
			w.u32(uint32(len(s.Obs)))
			for _, o := range s.Obs {
				w.f64(o)
			}
			w.u32(uint32(s.Action))
			w.f64(s.LogP)
		}
	}
	return w.buf
}

func decodeShard(payload []byte) (shardMsg, error) {
	r := &binReader{data: payload}
	if k := r.u8(); r.err == nil && k != msgShard {
		return shardMsg{}, fmt.Errorf("dist: expected shard, got message kind %d", k)
	}
	m := shardMsg{
		Epoch: int(r.u64()),
		Rank:  int(r.u32()),
		Lo:    int(r.u32()),
		Hi:    int(r.u32()),
	}
	n := int(r.u32())
	if r.err == nil && (n < 0 || n > len(r.data)) {
		return shardMsg{}, fmt.Errorf("dist: shard claims %d deltas in %d bytes", n, len(r.data))
	}
	m.Deltas = make([]core.TrajDelta, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		d := core.TrajDelta{
			Index:          int(r.u32()),
			Reward:         r.f64(),
			Improvement:    r.f64(),
			PctImprovement: r.f64(),
			Inspections:    int(r.u32()),
			Rejections:     int(r.u32()),
		}
		steps := int(r.u32())
		if r.err == nil && (steps < 0 || steps > len(r.data)) {
			return shardMsg{}, fmt.Errorf("dist: delta claims %d steps in %d bytes", steps, len(r.data))
		}
		d.Steps = make([]rl.Step, 0, steps)
		// The delta's observations are carved from one slab. Its size
		// comes from a look-ahead over the step headers, so it is exactly
		// the values the bytes hold — a hostile count cannot inflate it —
		// and the loop below re-reads the same headers with the checks
		// that name the error.
		slab := make([]float64, 0, obsValues(r.data, steps))
		for j := 0; j < steps && r.err == nil; j++ {
			obsN := int(r.u32())
			if r.err == nil && (obsN < 0 || obsN*8 > len(r.data)) {
				return shardMsg{}, fmt.Errorf("dist: step claims %d features in %d bytes", obsN, len(r.data))
			}
			off := len(slab)
			for k := 0; k < obsN; k++ {
				slab = append(slab, r.f64())
			}
			d.Steps = append(d.Steps, rl.Step{
				Obs:    slab[off:len(slab):len(slab)],
				Action: int(r.u32()),
				LogP:   r.f64(),
			})
		}
		m.Deltas = append(m.Deltas, d)
	}
	if err := r.done(); err != nil {
		return shardMsg{}, err
	}
	return m, nil
}

// obsValues returns how many observation values the next steps encoded
// steps of data hold in total, stopping at the first step the bytes cannot
// back.
func obsValues(data []byte, steps int) int {
	scan := binReader{data: data}
	total := 0
	for j := 0; j < steps; j++ {
		obsN := int(scan.u32())
		if scan.err != nil || obsN < 0 || obsN*8 > len(scan.data) {
			break
		}
		total += obsN
		scan.take(obsN*8 + 4 + 8) // the values, the action, the log-probability
	}
	return total
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
