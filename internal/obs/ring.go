package obs

import (
	"encoding/binary"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"schedinspector/internal/ckpt"
)

// TraceRing is the flight recorder: a byte arena of equal-size record
// slots holding spans, explain records, proc samples and the explain
// meta header in a canonical little-endian layout (the .ftrace format
// below). A record is encoded straight into its slot with zero steady-state
// allocations under one short mutex hold — cheap enough to leave on for
// every production decision.
//
// The ring is the in-memory truth; four cold paths read it out. SetSink
// streams every subsequent record into CRC-checked frames of a .ftrace
// file (a RotatingSink moves to a new file between frames),
// AppendSnapshot copies the live ring into a self-contained one-frame
// .ftrace image (the ?format=ftrace snapshot), AppendJSONL renders the live
// ring as flight-trace JSONL (the default /v1/trace/snapshot payload,
// keeping each record's line in immutable blocks while it stays live), and
// LastDecisions decodes the newest decision records (the /v1/explain/last
// payload). The flight-trace JSONL is decoder output only: internal/explain
// renders a .ftrace file through the same per-record renderer.
//
// Slot size follows the records. The first record allocates the arena as
// Cap() slots of the smallest power of two that holds it; a later record
// that does not fit widens every slot to the next power of two that holds
// it and re-slots the live records, once per record size class — a feature
// mode, in practice — so the warm path never allocates. Only a record that
// would push the arena past maxRingArenaBytes is dropped and counted
// oversize.
//
// # .ftrace layout
//
// A .ftrace stream is a sequence of internal/ckpt frames, the container
// model files, checkpoints and the dist wire use, each carrying
// FTraceVersion as its payload version. No file header precedes them.
//
//	stream  := frame*
//	frame   := ckpt header(24: magic, version, length, CRC-32C) payload
//	payload := record*
//	record  := kind(u8) length(u32) body(length bytes)
//
// Record integers are little-endian; floats are IEEE-754 bits via
// math.Float64bits. Records never straddle frames. Unknown record kinds
// are skipped by length on decode (forward compatibility); a version bump
// signals an incompatible body layout.
//
// A nil *TraceRing is valid and records nothing; every method is nil-safe.
type TraceRing struct {
	mu       sync.Mutex
	arena    []byte // slots * slotSize bytes; nil until the first record
	lens     []int  // framed bytes used per slot (0 = empty)
	slotSize int    // 0 until the first record
	start    int    // oldest slot
	n        int    // slots in use
	total    uint64
	dropped  uint64
	oversize uint64

	metaNames  []string
	metaMode   string
	metaMaxRej int
	metaFrom   uint64 // lifetime index of the first record under the current meta
	headerOut  bool
	lostHeader []byte // framed copy of the newest header record wraparound evicted

	sink    io.Writer
	sinkErr error
	seg     []byte // pending frame: ckpt.FrameHeaderSize header space + framed records

	jsonl jsonlCache // AppendJSONL's rendered window; its own lock, taken before mu

	occupancy *Gauge
	evicted   *Counter
	oversizeC *Counter
	sinkErrs  *Counter
	flushHist *Histogram
}

// .ftrace format constants.
const (
	// FTraceVersion is the ckpt frame version of .ftrace frames, bumped on
	// any incompatible change to the record layout.
	FTraceVersion = 2

	ftraceRecHdrLen = 5 // u8 kind + u32 length

	// MaxFTraceSegment caps the payload length a .ftrace frame may declare
	// on decode (the ckpt.ReadFrame bound).
	MaxFTraceSegment = 1 << 26
)

// Record kinds of the .ftrace container.
const (
	FTraceKindHeader   = 1 // explain meta header (ExplainHeader)
	FTraceKindSpan     = 2 // completed span (Span)
	FTraceKindDecision = 3 // explain record (ExplainRecord)
	FTraceKindProc     = 4 // runtime sample (ProcStats)
)

// DefaultRingSlots is the ring's default record capacity. Slot width is not
// a parameter: a manual-mode daemon's first record is its header (170 bytes
// framed), so its 4096 slots are 256 bytes, which also hold every
// manual-mode decision (235 bytes), in a 1 MiB arena; native mode's 102
// features and their header widen the slots on first use.
const DefaultRingSlots = 4096

// maxRingArenaBytes is the ceiling slot growth stops at: 16 KiB slots at the
// default slot count, a decision record of ~2000 features.
const maxRingArenaBytes = 64 << 20

// segFlushBytes is the pending-frame payload size that triggers a sink
// flush.
const segFlushBytes = 32 << 10

// NewTraceRing returns a ring of slots records (<= 0 selects
// DefaultRingSlots). It allocates no arena: the first record sizes the
// slots (see the growth rule on TraceRing). Arguments after slots are
// ignored: they are accepted so that callers still passing the former
// initial slot width compile.
func NewTraceRing(slots int, _ ...int) *TraceRing {
	if slots <= 0 {
		slots = DefaultRingSlots
	}
	return &TraceRing{lens: make([]int, slots)}
}

// Instrument registers the ring's self-observability metrics on reg:
// occupancy, capacity and memory gauges, eviction / oversize / sink-error
// counters, and the sink flush latency histogram. The memory gauge is the
// arena plus the block capacity and buffers of AppendJSONL's rendered
// window, read at scrape time.
func (r *TraceRing) Instrument(reg *Registry) {
	if r == nil || reg == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.occupancy = reg.Gauge("schedinspector_ftrace_ring_records",
		"Records currently held in the binary trace ring.", nil)
	reg.Gauge("schedinspector_ftrace_ring_slots",
		"Record capacity of the binary trace ring.", nil).Set(float64(len(r.lens)))
	reg.GaugeFunc("schedinspector_ftrace_ring_bytes",
		"Bytes the binary trace ring holds: its arena plus the rendered JSONL of the live window.", nil,
		r.footprint)
	r.evicted = reg.Counter("schedinspector_ftrace_ring_evicted_total",
		"Records evicted from the binary trace ring by wraparound.", nil)
	r.oversizeC = reg.Counter("schedinspector_ftrace_oversize_total",
		"Records dropped because slots wide enough for them would exceed the ring arena ceiling.", nil)
	r.sinkErrs = reg.Counter("schedinspector_ftrace_sink_errors_total",
		"Binary trace sink write errors (the first error sticks and disables the sink).", nil)
	r.flushHist = reg.Histogram("schedinspector_ftrace_flush_seconds",
		"Latency of binary trace frame flushes to the sink.",
		ExponentialBuckets(1e-5, 4, 8), nil)
	r.occupancy.Set(float64(r.n))
}

// footprint returns the arena's bytes (0 before the first record) plus the
// JSONL cache's block and buffer capacity.
func (r *TraceRing) footprint() float64 {
	r.mu.Lock()
	arena := len(r.arena)
	r.mu.Unlock()
	return float64(int64(arena) + r.jsonl.bytes.Load())
}

// growLocked widens every slot to the next power of two holding a framed
// record of need bytes and re-slots the live records, or reports false when
// that arena would pass maxRingArenaBytes. The first record's call, with no
// slots yet, allocates the arena. Caller holds r.mu.
func (r *TraceRing) growLocked(need int) bool {
	size := 1 << bits.Len(uint(need-1))
	if size > maxRingArenaBytes/len(r.lens) {
		return false
	}
	arena := make([]byte, len(r.lens)*size)
	for idx, n := range r.lens {
		copy(arena[idx*size:], r.arena[idx*r.slotSize:idx*r.slotSize+n])
	}
	r.arena, r.slotSize = arena, size
	// The pending sink frame takes one more record of the new width past
	// the flush threshold without reallocating, as SetSink sized it for the
	// old one, so a warm emit with a sink attached stays allocation-free.
	if want := ckpt.FrameHeaderSize + segFlushBytes + size; r.seg != nil && cap(r.seg) < want {
		r.seg = slices.Grow(r.seg, want-len(r.seg))
	}
	return true
}

// reserve claims the next slot for a record of payloadLen body bytes,
// writes the frame header, and returns the full framed slot (encode the
// body into frame[ftraceRecHdrLen:]), or nil when no permitted slot size
// holds the framed record (counted as oversize). The first record
// allocates the arena, and any record wider than the slots widens them.
// Caller holds r.mu.
func (r *TraceRing) reserve(kind byte, payloadLen int) []byte {
	framed := ftraceRecHdrLen + payloadLen
	if framed > r.slotSize && !r.growLocked(framed) {
		r.oversize++
		if r.oversizeC != nil {
			r.oversizeC.Inc()
		}
		return nil
	}
	r.total++
	var idx int
	if r.n < len(r.lens) {
		idx = r.start + r.n
		if idx >= len(r.lens) {
			idx -= len(r.lens)
		}
		r.n++
	} else {
		idx = r.start
		if old := r.arena[idx*r.slotSize:]; old[0] == FTraceKindHeader {
			// Records still in the ring decode against this header; Snapshot
			// leads with the copy. As rare as a feature-mode-changing reload.
			r.lostHeader = append(r.lostHeader[:0], old[:r.lens[idx]]...)
		}
		r.start++
		if r.start == len(r.lens) {
			r.start = 0
		}
		r.dropped++
		if r.evicted != nil {
			r.evicted.Inc()
		}
	}
	if r.occupancy != nil {
		r.occupancy.Set(float64(r.n))
	}
	r.lens[idx] = framed
	slot := r.arena[idx*r.slotSize : idx*r.slotSize+framed]
	slot[0] = kind
	binary.LittleEndian.PutUint32(slot[1:], uint32(payloadLen))
	return slot
}

// commit streams the just-encoded slot to the pending sink frame.
// Caller holds r.mu; framed is the full frame including header.
func (r *TraceRing) commit(framed []byte) {
	if r.sink == nil || r.sinkErr != nil {
		return
	}
	r.seg = append(r.seg, framed...)
	if len(r.seg)-ckpt.FrameHeaderSize >= segFlushBytes {
		r.flushLocked()
		r.rotateLocked()
	}
}

// EmitSpan records one completed span. The span's slices are copied into
// the arena immediately; the caller keeps ownership of Attrs. Safe on a nil
// ring.
func (r *TraceRing) EmitSpan(s *Span) {
	if r == nil {
		return
	}
	n := spanBodyLen(s)
	r.mu.Lock()
	if frame := r.reserve(FTraceKindSpan, n); frame != nil {
		putSpanBody(frame[ftraceRecHdrLen:], s)
		r.commit(frame)
	}
	r.mu.Unlock()
}

// EmitDecision records one explain record. Slices are copied into the
// arena immediately — the ring does not take ownership, so hot paths may
// pass borrowed scratch slices. Safe on a nil ring.
func (r *TraceRing) EmitDecision(rec *ExplainRecord) {
	if r == nil {
		return
	}
	n := decisionBodyLen(rec)
	r.mu.Lock()
	if frame := r.reserve(FTraceKindDecision, n); frame != nil {
		putDecisionBody(frame[ftraceRecHdrLen:], rec)
		r.commit(frame)
	}
	r.mu.Unlock()
}

// EmitProc records one runtime sample. Safe on a nil ring.
func (r *TraceRing) EmitProc(s ProcStats) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if frame := r.reserve(FTraceKindProc, procBodyLen); frame != nil {
		putProcBody(frame[ftraceRecHdrLen:], s)
		r.commit(frame)
	}
	r.mu.Unlock()
}

// SetMeta declares the feature names, feature-mode name and rejection cap
// of subsequent decision records: the first call after construction (or
// after SetSink) emits one header record, and a later call that actually
// changes the meta (a feature-mode-changing model reload) emits a fresh
// header record into the ring and sink stream, so every decision record
// decodes against the most recent preceding header. Calls restating the
// current meta only update the stored copy.
func (r *TraceRing) SetMeta(names []string, mode string, maxRejections int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if metaChanged(r.metaNames, r.metaMode, r.metaMaxRej, names, mode, maxRejections) {
		r.headerOut = false
		r.metaFrom = r.total
	}
	r.metaNames = names
	r.metaMode = mode
	r.metaMaxRej = maxRejections
	r.emitHeaderLocked()
	r.mu.Unlock()
}

// metaChanged reports whether a SetMeta call declares different meta than
// the ring currently holds (a nil current name set counts as changed — the
// first declaration must emit a header).
func metaChanged(curNames []string, curMode string, curMax int, names []string, mode string, maxRejections int) bool {
	if curNames == nil || curMode != mode || curMax != maxRejections || len(curNames) != len(names) {
		return true
	}
	for i := range names {
		if curNames[i] != names[i] {
			return true
		}
	}
	return false
}

// emitHeaderLocked emits the meta header record once per sink generation,
// as soon as meta is present. Caller holds r.mu.
func (r *TraceRing) emitHeaderLocked() {
	if r.headerOut || r.metaNames == nil {
		return
	}
	h := ExplainHeader{Mode: r.metaMode, Features: r.metaNames, MaxRejections: r.metaMaxRej}
	if frame := r.reserve(FTraceKindHeader, headerBodyLen(&h)); frame != nil {
		putHeaderBody(frame[ftraceRecHdrLen:], &h)
		r.commit(frame)
		r.headerOut = true
	}
}

// A RotatingSink is a sink that moves to a new file when the current one
// is full. The ring asks it after every frame it flushes at the size
// threshold, never at Flush; when Rotate reports a new file, the ring opens
// that file as SetSink opens a sink, so every file decodes alone.
type RotatingSink interface {
	io.Writer
	Rotate() (rotated bool, err error)
}

// SetSink streams every subsequent record to w in .ftrace frames, the
// first of them opening with a fresh meta header record when SetMeta has
// been called. The first write or rotation error
// sticks (see SinkErr), bumps the sink-error counter, and disables the
// sink; records keep landing in the ring regardless.
func (r *TraceRing) SetSink(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sink = w
	r.sinkErr = nil
	if r.seg == nil {
		r.seg = make([]byte, ckpt.FrameHeaderSize, ckpt.FrameHeaderSize+segFlushBytes+r.slotSize)
	} else {
		r.seg = r.seg[:ckpt.FrameHeaderSize]
	}
	r.startStreamLocked()
	r.mu.Unlock()
}

// startStreamLocked starts a record stream on the sink by re-emitting the
// meta header, so the file is self-describing even when meta predates it.
// Caller holds r.mu with an empty pending frame.
func (r *TraceRing) startStreamLocked() {
	r.headerOut = false
	r.emitHeaderLocked()
}

// rotateLocked moves a full RotatingSink to its next file and starts that
// file's stream. Caller holds r.mu, just after a flush.
func (r *TraceRing) rotateLocked() {
	rs, ok := r.sink.(RotatingSink)
	if !ok {
		return
	}
	if rotated, err := rs.Rotate(); err != nil {
		r.failSinkLocked(err)
	} else if rotated {
		r.startStreamLocked()
	}
}

// failSinkLocked records the first sink error. Caller holds r.mu.
func (r *TraceRing) failSinkLocked(err error) {
	if r.sinkErr == nil {
		r.sinkErr = err
		if r.sinkErrs != nil {
			r.sinkErrs.Inc()
		}
	}
	r.sink = nil
}

// flushLocked seals the pending frame (if any) in place and writes it
// whole in one Write. Caller holds r.mu.
func (r *TraceRing) flushLocked() {
	if r.sink == nil || r.sinkErr != nil || len(r.seg) <= ckpt.FrameHeaderSize {
		return
	}
	ckpt.SealFrame(r.seg, FTraceVersion)
	start := time.Now()
	_, err := r.sink.Write(r.seg)
	if r.flushHist != nil {
		r.flushHist.Observe(time.Since(start).Seconds())
	}
	r.seg = r.seg[:ckpt.FrameHeaderSize]
	if err != nil {
		r.failSinkLocked(err)
	}
}

// Flush writes any buffered frame to the sink and returns the sticky sink
// error, if any. Call it before closing the sink file.
func (r *TraceRing) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushLocked()
	return r.sinkErr
}

// slotAt returns the framed record i places after the oldest. Caller holds
// r.mu.
func (r *TraceRing) slotAt(i int) []byte {
	idx := r.start + i
	if idx >= len(r.lens) {
		idx -= len(r.lens)
	}
	return r.arena[idx*r.slotSize : idx*r.slotSize+r.lens[idx]]
}

// Snapshot returns the live ring as a self-contained .ftrace image:
// AppendSnapshot(nil).
func (r *TraceRing) Snapshot() []byte { return r.AppendSnapshot(nil) }

// AppendSnapshot appends the live ring to dst as a self-contained .ftrace
// image: one frame holding every buffered record, oldest first (an empty
// or nil ring yields one empty frame). When wraparound has evicted the
// header the oldest record decodes against, the image leads with the
// retained copy, so it always opens with the header describing its first
// record. The ring mutex is held only for the copy; a caller that passes
// back its previous image (/v1/trace/snapshot does) allocates nothing once
// that buffer is large enough.
func (r *TraceRing) AppendSnapshot(dst []byte) []byte {
	at := len(dst)
	if r == nil {
		dst = slices.Grow(dst, ckpt.FrameHeaderSize)[:at+ckpt.FrameHeaderSize]
	} else {
		r.mu.Lock()
		var lead []byte
		if r.n > 0 && r.slotAt(0)[0] != FTraceKindHeader {
			lead = r.lostHeader
		}
		size := ckpt.FrameHeaderSize + len(lead)
		for i := 0; i < r.n; i++ {
			size += len(r.slotAt(i))
		}
		dst = append(slices.Grow(dst, size)[:at+ckpt.FrameHeaderSize], lead...)
		for i := 0; i < r.n; i++ {
			dst = append(dst, r.slotAt(i)...)
		}
		r.mu.Unlock()
	}
	ckpt.SealFrame(dst[at:], FTraceVersion)
	return dst
}

// LastDecisions returns the feature names of the current meta and the most
// recent min(n, held) decision records emitted since SetMeta declared it,
// oldest first, skipping the headers, spans and proc samples between them:
// every record it returns carries features under those names, even just
// after a feature-mode-changing SetMeta (records empty but non-nil when
// there are none; both nil only for n <= 0 or a nil ring). Names and
// records are read under one hold of the ring mutex, which copies the
// framed records out; they decode after it. It allocates; it is the cold read-out path behind
// /v1/explain/last.
func (r *TraceRing) LastDecisions(n int) (names []string, recs []ExplainRecord) {
	if r == nil || n <= 0 {
		return nil, nil
	}
	r.mu.Lock()
	names = r.metaNames
	first := r.total - uint64(r.n) // lifetime index of the oldest slot
	i, count, size := r.n-1, 0, 0
	for ; i >= 0 && first+uint64(i) >= r.metaFrom && count < n; i-- {
		if slot := r.slotAt(i); slot[0] == FTraceKindDecision {
			count++
			size += len(slot)
		}
	}
	framed := make([]byte, 0, size)
	for i++; i < r.n; i++ {
		if slot := r.slotAt(i); slot[0] == FTraceKindDecision {
			framed = append(framed, slot...)
		}
	}
	r.mu.Unlock()

	recs = make([]ExplainRecord, count)
	for o, k := 0, 0; o < len(framed); k++ {
		_, body, next := framedAt(framed, o)
		o = next
		// The body was encoded by putDecisionBody; it decodes.
		recs[k], _ = DecodeFTraceDecision(body)
	}
	return names, recs
}

// Len returns how many records the ring currently holds.
func (r *TraceRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Cap returns the ring's record capacity (slot count).
func (r *TraceRing) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.lens)
}

// Total returns how many records were emitted over the ring's lifetime,
// including evicted ones (oversize rejects are not counted).
func (r *TraceRing) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many records wraparound evicted.
func (r *TraceRing) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Oversized returns how many records were dropped because no slot size
// under the arena ceiling holds them.
func (r *TraceRing) Oversized() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.oversize
}

// SinkErr returns the first binary sink write error, if any.
func (r *TraceRing) SinkErr() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sinkErr
}

// --- binary record bodies -------------------------------------------------
//
// Encoding primitives. Integers widen to int64/uint64 little-endian; floats
// are Float64bits; strings and slices carry a u32 length/count prefix;
// bools are one byte. Encoders write into a pre-sized buffer via an offset
// cursor; the matching decoders live in ftrace_decode.go and must mirror
// field order exactly.

func putU32At(b []byte, o int, v uint32) int {
	binary.LittleEndian.PutUint32(b[o:], v)
	return o + 4
}

func putU64At(b []byte, o int, v uint64) int {
	binary.LittleEndian.PutUint64(b[o:], v)
	return o + 8
}

func putI64At(b []byte, o int, v int64) int {
	return putU64At(b, o, uint64(v))
}

func putF64At(b []byte, o int, v float64) int {
	return putU64At(b, o, math.Float64bits(v))
}

func putStrAt(b []byte, o int, s string) int {
	o = putU32At(b, o, uint32(len(s)))
	copy(b[o:], s)
	return o + len(s)
}

func putBoolAt(b []byte, o int, v bool) int {
	if v {
		b[o] = 1
	} else {
		b[o] = 0
	}
	return o + 1
}

func putF64sAt(b []byte, o int, vs []float64) int {
	o = putU32At(b, o, uint32(len(vs)))
	for _, v := range vs {
		o = putF64At(b, o, v)
	}
	return o
}

func strLen(s string) int { return 4 + len(s) }

func f64sLen(vs []float64) int { return 4 + 8*len(vs) }

// Span body: id u64 | parent u64 | name str | wall0 i64 | wall1 i64 |
// t0 f64 | t1 f64 | nattrs u32 | attrs{key str | num f64 | str str}.
func spanBodyLen(s *Span) int {
	n := 8 + 8 + strLen(s.Name) + 8 + 8 + 8 + 8 + 4
	for i := range s.Attrs {
		n += strLen(s.Attrs[i].Key) + 8 + strLen(s.Attrs[i].Str)
	}
	return n
}

func putSpanBody(b []byte, s *Span) {
	o := putU64At(b, 0, uint64(s.ID))
	o = putU64At(b, o, uint64(s.Parent))
	o = putStrAt(b, o, s.Name)
	o = putI64At(b, o, s.WallStart)
	o = putI64At(b, o, s.WallEnd)
	o = putF64At(b, o, s.SimStart)
	o = putF64At(b, o, s.SimEnd)
	o = putU32At(b, o, uint32(len(s.Attrs)))
	for i := range s.Attrs {
		a := &s.Attrs[i]
		o = putStrAt(b, o, a.Key)
		o = putF64At(b, o, a.Num)
		o = putStrAt(b, o, a.Str)
	}
}

// Decision body: epoch traj seq i64 | t f64 | job i64 | wait f64 |
// procs i64 | est f64 | rejections max_rejections queue free total i64 |
// util f64 | action i64 | sampled u8 | rejected u8 | features logits probs
// (u32 count + f64 each).
func decisionBodyLen(r *ExplainRecord) int {
	return 15*8 + 2 + f64sLen(r.Features) + f64sLen(r.Logits) + f64sLen(r.Probs)
}

func putDecisionBody(b []byte, r *ExplainRecord) {
	o := putI64At(b, 0, int64(r.Epoch))
	o = putI64At(b, o, int64(r.Traj))
	o = putI64At(b, o, int64(r.Seq))
	o = putF64At(b, o, r.Time)
	o = putI64At(b, o, int64(r.JobID))
	o = putF64At(b, o, r.Wait)
	o = putI64At(b, o, int64(r.Procs))
	o = putF64At(b, o, r.Est)
	o = putI64At(b, o, int64(r.Rejections))
	o = putI64At(b, o, int64(r.MaxRejections))
	o = putI64At(b, o, int64(r.QueueLen))
	o = putI64At(b, o, int64(r.FreeProcs))
	o = putI64At(b, o, int64(r.TotalProcs))
	o = putF64At(b, o, r.Utilization)
	o = putI64At(b, o, int64(r.Action))
	o = putBoolAt(b, o, r.Sampled)
	o = putBoolAt(b, o, r.Rejected)
	o = putF64sAt(b, o, r.Features)
	o = putF64sAt(b, o, r.Logits)
	putF64sAt(b, o, r.Probs)
}

// Header body: mode str | u32 count | feature names | max_rejections i64.
func headerBodyLen(h *ExplainHeader) int {
	n := strLen(h.Mode) + 4 + 8
	for _, f := range h.Features {
		n += strLen(f)
	}
	return n
}

func putHeaderBody(b []byte, h *ExplainHeader) {
	o := putStrAt(b, 0, h.Mode)
	o = putU32At(b, o, uint32(len(h.Features)))
	for _, f := range h.Features {
		o = putStrAt(b, o, f)
	}
	putI64At(b, o, int64(h.MaxRejections))
}

// Proc body: wall i64 | goroutines i64 | heap_alloc u64 | heap_sys u64 |
// num_gc u32 | gc_pause_total_ns u64.
const procBodyLen = 8 + 8 + 8 + 8 + 4 + 8

func putProcBody(b []byte, s ProcStats) {
	o := putI64At(b, 0, s.Wall)
	o = putI64At(b, o, int64(s.Goroutines))
	o = putU64At(b, o, s.HeapAlloc)
	o = putU64At(b, o, s.HeapSys)
	o = putU32At(b, o, s.NumGC)
	putU64At(b, o, s.PauseTotal)
}
