package obs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"schedinspector/internal/ckpt"
)

// decodeImage parses a complete .ftrace byte image (any number of ckpt
// frames) into (kind, body) record pairs. It is the test-side mirror of the
// encoder; the full offline reader lives in internal/explain, which cannot
// be imported from an in-package obs test.
func decodeImage(t *testing.T, img []byte) (kinds []byte, bodies [][]byte) {
	t.Helper()
	for r := bytes.NewReader(img); r.Len() > 0; {
		version, payload, err := ckpt.ReadFrame(r, MaxFTraceSegment)
		if err != nil {
			t.Fatal(err)
		}
		if version != FTraceVersion {
			t.Fatalf("frame version %d, want %d", version, FTraceVersion)
		}
		for p := 0; p < len(payload); {
			kind, body, next, err := FTraceRecordAt(payload, p)
			if err != nil {
				t.Fatal(err)
			}
			kinds = append(kinds, kind)
			bodies = append(bodies, body)
			p = next
		}
	}
	return kinds, bodies
}

func testDecision(seq int) ExplainRecord {
	return ExplainRecord{
		Epoch: 1, Traj: 2, Seq: seq, Time: 100.5, JobID: 40 + seq,
		Wait: 12.25, Procs: 4, Est: 600, Rejections: 1, MaxRejections: 72,
		QueueLen: 3, FreeProcs: 16, TotalProcs: 64, Utilization: 0.75,
		Action: 1, Sampled: true, Rejected: seq%2 == 0,
		Features: []float64{0.1, 0.2, 0.3},
		Logits:   []float64{0.5, -0.5},
		Probs:    []float64{0.73, 0.27},
	}
}

func TestTraceRingRoundTrip(t *testing.T) {
	r := NewTraceRing(16)
	r.SetMeta([]string{"wait", "procs"}, "manual", 72)
	sp := Span{ID: 9, Parent: 2, Name: "decision", WallStart: 100, WallEnd: 150,
		SimStart: 10.5, SimEnd: 11, Attrs: []Attr{{Key: "job", Num: 7}, {Key: "verdict", Str: "reject"}}}
	r.EmitSpan(&sp)
	dec := testDecision(3)
	r.EmitDecision(&dec)
	ps := ProcStats{Wall: 1234, Goroutines: 8, HeapAlloc: 1 << 20, HeapSys: 1 << 22, NumGC: 3, PauseTotal: 5000}
	r.EmitProc(ps)

	// The header (44 bytes framed) sized the slots at 64, the span (121) and
	// the decision (195) widened them to 128 and then 256; the proc sample fit.
	if r.slotSize != 256 {
		t.Fatalf("slots are %d bytes, want 256: the power of two holding the widest record", r.slotSize)
	}
	kinds, bodies := decodeImage(t, r.Snapshot())
	if want := []byte{FTraceKindHeader, FTraceKindSpan, FTraceKindDecision, FTraceKindProc}; !bytes.Equal(kinds, want) {
		t.Fatalf("record kinds %v, want %v", kinds, want)
	}
	h, err := DecodeFTraceHeader(bodies[0])
	if err != nil {
		t.Fatal(err)
	}
	if h.Mode != "manual" || h.MaxRejections != 72 || !reflect.DeepEqual(h.Features, []string{"wait", "procs"}) {
		t.Fatalf("header mangled: %+v", h)
	}
	gotSpan, err := DecodeFTraceSpan(bodies[1])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSpan, sp) {
		t.Fatalf("span round-trip:\n got %+v\nwant %+v", gotSpan, sp)
	}
	gotDec, err := DecodeFTraceDecision(bodies[2])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotDec, dec) {
		t.Fatalf("decision round-trip:\n got %+v\nwant %+v", gotDec, dec)
	}
	gotProc, err := DecodeFTraceProc(bodies[3])
	if err != nil {
		t.Fatal(err)
	}
	if gotProc != ps {
		t.Fatalf("proc round-trip: got %+v want %+v", gotProc, ps)
	}

	// Records that fit never grow the slots or move the arena.
	arena := &r.arena[0]
	r.EmitSpan(&sp)
	r.EmitDecision(&dec)
	r.EmitProc(ps)
	if r.slotSize != 256 || &r.arena[0] != arena {
		t.Fatalf("records that fit their slots reallocated the arena (slots now %d bytes)", r.slotSize)
	}
}

// TestFTraceByteLayout pins the .ftrace bytes of one record of each kind,
// emitted through a ring: a layout change that does not bump FTraceVersion
// fails here, where the JSONL goldens would not notice it.
func TestFTraceByteLayout(t *testing.T) {
	r := NewTraceRing(8)
	r.SetMeta([]string{"wait"}, "m", 72)
	r.EmitSpan(&Span{ID: 9, Parent: 2, Name: "d", WallStart: 100, WallEnd: -1, SimStart: 0.5, SimEnd: 1,
		Attrs: []Attr{{Key: "k", Num: 2, Str: "v"}}})
	r.EmitDecision(&ExplainRecord{Epoch: 1, Traj: 2, Seq: 3, Time: 4, JobID: 5, Wait: 6, Procs: 7, Est: 8,
		Rejections: 9, MaxRejections: 10, QueueLen: 11, FreeProcs: 12, TotalProcs: 13, Utilization: 0.25,
		Action: 1, Sampled: true, Rejected: false, Features: []float64{0.5}, Logits: []float64{1, -1}})
	r.EmitProc(ProcStats{Wall: 1, Goroutines: 2, HeapAlloc: 3, HeapSys: 4, NumGC: 5, PauseTotal: 6})
	want := strings.Join([]string{
		// ckpt frame header: magic, version 3, payload length 322, CRC-32C.
		"53434844434b5001", "00000003", "0000000000000142", "54be23c0",
		// Header record, kind 1, 25 body bytes: mode "m", 1 feature name
		// "wait", max rejections 72.
		"01", "00000019", "00000001", "6d", "00000001", "00000004", "77616974", "0000000000000048",
		// Span record, kind 2, 75 body bytes: id 9, parent 2, name "d", wall
		// 100 and -1, sim 0.5 and 1, 1 attr {"k", 2, "v"}.
		"02", "0000004b", "0000000000000009", "0000000000000002", "00000001", "64",
		"0000000000000064", "ffffffffffffffff", "3fe0000000000000", "3ff0000000000000",
		"00000001", "00000001", "6b", "4000000000000000", "00000001", "76",
		// Decision record, kind 3, 158 body bytes: epoch 1, traj 2, seq 3,
		// time 4, job 5, wait 6, procs 7, est 8, rejections 9 of 10, queue 11,
		// free 12 of 13, utilization 0.25, action 1, sampled, not rejected,
		// features [0.5], logits [1 -1], probs none.
		"03", "0000009e", "0000000000000001", "0000000000000002", "0000000000000003",
		"4010000000000000", "0000000000000005", "4018000000000000", "0000000000000007",
		"4020000000000000", "0000000000000009", "000000000000000a", "000000000000000b",
		"000000000000000c", "000000000000000d", "3fd0000000000000", "0000000000000001",
		"01", "00", "00000001", "3fe0000000000000", "00000002", "3ff0000000000000",
		"bff0000000000000", "00000000",
		// Proc record, kind 4, 44 body bytes: wall 1, goroutines 2, heap 3
		// of 4, 5 GCs, 6 ns paused.
		"04", "0000002c", "0000000000000001", "0000000000000002", "0000000000000003",
		"0000000000000004", "00000005", "0000000000000006",
	}, "")
	if got := fmt.Sprintf("%x", r.Snapshot()); got != want {
		t.Fatalf(".ftrace bytes\n%s\nwant\n%s", got, want)
	}
}

// TestTraceRingWraparound pins the eviction order: a full ring drops the
// oldest record per insert, the snapshot reads out oldest-first, and the
// lifetime counters account for every emit.
func TestTraceRingWraparound(t *testing.T) {
	r := NewTraceRing(3)
	for seq := 1; seq <= 5; seq++ {
		dec := testDecision(seq)
		r.EmitDecision(&dec)
	}
	if r.Len() != 3 || r.Cap() != 3 {
		t.Fatalf("Len/Cap = %d/%d, want 3/3", r.Len(), r.Cap())
	}
	if r.Total() != 5 || r.Dropped() != 2 {
		t.Fatalf("Total/Dropped = %d/%d, want 5/2", r.Total(), r.Dropped())
	}
	_, bodies := decodeImage(t, r.Snapshot())
	if len(bodies) != 3 {
		t.Fatalf("snapshot holds %d records, want 3", len(bodies))
	}
	for i, want := range []int{3, 4, 5} {
		dec, err := DecodeFTraceDecision(bodies[i])
		if err != nil {
			t.Fatal(err)
		}
		if dec.Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d (oldest-first after wraparound)", i, dec.Seq, want)
		}
	}
}

// TestTraceRingOversize pins the slot-growth rule: the first record sizes
// the slots, a record wider than them widens them once (next power of two,
// live records re-slotted and earlier read-outs unchanged, warm path
// allocation-free afterwards, with or without a sink), and only a record no
// slot size under the arena ceiling holds is counted and skipped without
// disturbing the ring.
func TestTraceRingOversize(t *testing.T) {
	small := testDecision(1)
	small.Features, small.Logits, small.Probs = nil, nil, nil // 139 bytes framed
	big := testDecision(2)
	big.Features = make([]float64, 64) // ~700 bytes framed
	big.Features[63] = 0.5

	r := NewTraceRing(4)
	if r.arena != nil {
		t.Fatalf("a ring with no records holds a %d-byte arena", len(r.arena))
	}
	r.SetMeta([]string{"a"}, "manual", 72) // a 32-byte header record
	if r.slotSize != 32 || len(r.arena) != 4*32 {
		t.Fatalf("the first record sized the slots at %d x %d bytes, want 4 x 32", r.Cap(), r.slotSize)
	}
	r.EmitDecision(&small)
	if r.slotSize != 256 || len(r.arena) != 4*256 {
		t.Fatalf("slots are %d x %d bytes, want 4 x 256 for a 139-byte record", r.Cap(), r.slotSize)
	}
	views, _, err := r.AppendJSONL(nil)
	if err != nil {
		t.Fatal(err)
	}
	text := bytes.Join(views, nil)
	snap := r.Snapshot()
	r.EmitDecision(&big)
	if r.Oversized() != 0 || r.Len() != 3 || r.Total() != 3 {
		t.Fatalf("growth dropped a record: Oversized=%d Len=%d Total=%d", r.Oversized(), r.Len(), r.Total())
	}
	if r.slotSize != 1024 || r.Cap() != 4 {
		t.Fatalf("slots grew to %d x %d, want 4 x 1024", r.Cap(), r.slotSize)
	}
	_, got := r.LastDecisions(2)
	if len(got) != 2 || !reflect.DeepEqual(got[0], small) || !reflect.DeepEqual(got[1], big) {
		t.Fatalf("records did not survive re-slotting: %+v", got)
	}
	// The frame header, then the payload: the records held before growth
	// read out as they did, followed by the new one.
	const payloadAt = ckpt.FrameHeaderSize
	if after := r.Snapshot(); !bytes.HasPrefix(after[payloadAt:], snap[payloadAt:]) {
		t.Fatal("re-slotting changed the snapshot bytes of the records already held")
	}
	if !bytes.Equal(bytes.Join(views, nil), text) {
		t.Fatal("re-slotting changed the bytes of earlier JSONL views")
	}
	if allocs := testing.AllocsPerRun(20, func() { r.EmitDecision(&big) }); allocs != 0 {
		t.Fatalf("warm emit into grown slots allocated %.1f times, want 0", allocs)
	}

	// With a sink attached before any record, the pending frame follows
	// the slots: the emits up to and past the first flush allocate nothing.
	s := NewTraceRing(4)
	s.SetSink(io.Discard)
	s.EmitDecision(&small)
	s.EmitDecision(&big)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 2*segFlushBytes/700; i++ {
		s.EmitDecision(&big)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 || s.SinkErr() != nil {
		t.Fatalf("warm emits into grown slots with a sink allocated %d times (sink error %v)", n, s.SinkErr())
	}

	// 16384 slots leave 4 KiB each under the ceiling: a ~5 KB first record
	// is refused and leaves the arena unallocated; a fitting record then
	// sizes the slots, and the next ~5 KB one is refused without disturbing
	// them.
	r = NewTraceRing(1 << 14)
	huge := testDecision(3)
	huge.Features = make([]float64, 600)
	r.EmitDecision(&huge)
	if r.Oversized() != 1 || r.Len() != 0 || r.Total() != 0 || r.arena != nil {
		t.Fatalf("oversize first record: Oversized=%d Len=%d Total=%d arena=%d bytes, want 1/0/0/unallocated",
			r.Oversized(), r.Len(), r.Total(), len(r.arena))
	}
	r.EmitDecision(&small)
	r.EmitDecision(&huge)
	if r.Oversized() != 2 || r.Len() != 1 || r.Total() != 1 || r.slotSize != 256 {
		t.Fatalf("oversize record disturbed the ring: Oversized=%d Len=%d Total=%d slotSize=%d",
			r.Oversized(), r.Len(), r.Total(), r.slotSize)
	}
}

// failAfterWriter accepts the first ok writes, then fails every later one.
type failAfterWriter struct {
	ok     int
	writes int
	buf    bytes.Buffer
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.ok {
		return 0, errors.New("disk full")
	}
	return w.buf.Write(p)
}

// TestTraceRingSinkErrorMidTrace is the write-failure regression test: the
// sink fails its first frame, the first flush error sticks, the error
// counter fires once, and records keep landing in the ring regardless.
func TestTraceRingSinkErrorMidTrace(t *testing.T) {
	reg := NewRegistry()
	r := NewTraceRing(64)
	r.Instrument(reg)
	w := &failAfterWriter{} // every frame flush fails
	r.SetSink(w)
	if r.SinkErr() != nil {
		t.Fatalf("SetSink writes nothing, yet reported %v", r.SinkErr())
	}
	for seq := 0; seq < 8; seq++ {
		dec := testDecision(seq)
		r.EmitDecision(&dec)
	}
	if err := r.Flush(); err == nil {
		t.Fatal("flush against a dead sink returned nil")
	}
	if r.SinkErr() == nil {
		t.Fatal("sink error did not stick")
	}
	for seq := 8; seq < 12; seq++ {
		dec := testDecision(seq)
		r.EmitDecision(&dec) // must not panic or write
	}
	if err := r.Flush(); err == nil {
		t.Fatal("sticky error cleared by a later flush")
	}
	if w.writes != 1 {
		t.Fatalf("sink written %d times after error, want 1 (the failed flush)", w.writes)
	}
	if r.Len() != 12 {
		t.Fatalf("ring stopped recording after sink error: Len=%d, want 12", r.Len())
	}
	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "schedinspector_ftrace_sink_errors_total 1") {
		t.Fatalf("sink error counter missing from exposition:\n%s", prom.String())
	}
	if !strings.Contains(prom.String(), "schedinspector_ftrace_ring_records 12") {
		t.Fatalf("occupancy gauge missing from exposition:\n%s", prom.String())
	}

	// The memory gauge is the arena, 64 slots of the 256 bytes a 195-byte
	// decision needs, until a JSONL snapshot renders the window; then it
	// counts the cache's blocks and buffers too.
	if !strings.Contains(prom.String(), "schedinspector_ftrace_ring_bytes 16384\n") {
		t.Fatalf("memory gauge is not the arena before any JSONL call:\n%s", prom.String())
	}
	gauge := func() {
		t.Helper()
		prom.Reset()
		if err := reg.WriteProm(&prom); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("schedinspector_ftrace_ring_bytes %d\n", int64(len(r.arena))+r.jsonl.bytes.Load())
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("memory gauge missing %q:\n%s", want, prom.String())
		}
	}
	if _, n, err := r.AppendJSONL(nil); err != nil || n == 0 || r.jsonl.bytes.Load() < jsonlBlockSize {
		t.Fatalf("%d bytes of JSONL, error %v; the cache counts %d bytes", n, err, r.jsonl.bytes.Load())
	}
	gauge()

	// Many wraparounds of ~2.5 KB lines, a window of a few blocks: the
	// blocks stay within the window's text plus two (a partly dead first
	// block, a partly empty last one), however much text went through.
	wide := testDecision(0)
	wide.Features = make([]float64, 100)
	for i := range wide.Features {
		wide.Features[i] = 1.0 / float64(i+3)
	}
	written := 0
	for round := 0; round < 30; round++ {
		for i := 0; i < 40; i++ {
			r.EmitDecision(&wide)
		}
		_, n, err := r.AppendJSONL(nil)
		if err != nil {
			t.Fatal(err)
		}
		written += 40 * (n / r.Len())
		c := &r.jsonl
		if held, window := len(c.blocks)*jsonlBlockSize, c.end-c.start; held > window+2*jsonlBlockSize || window+len(c.leadLine) != n {
			t.Fatalf("round %d: %d block bytes for a %d-byte window (%d with the lead)", round, held, window, n)
		}
	}
	if written < 20*jsonlBlockSize || len(r.jsonl.blocks) < 3 {
		t.Fatalf("%d bytes through %d blocks: eviction across blocks did not run", written, len(r.jsonl.blocks))
	}
	gauge()
}

// TestLastDecisionsAcrossSinkHeader: a header that only restates the meta
// (a new sink, or a rotation into a new file) does not cut LastDecisions
// short; a meta change does.
func TestLastDecisionsAcrossSinkHeader(t *testing.T) {
	r := NewTraceRing(16)
	r.SetMeta([]string{"a", "b", "c"}, "m", 72)
	for seq := 0; seq < 3; seq++ {
		if seq == 2 {
			r.SetSink(io.Discard) // re-emits the header into the ring
		}
		dec := testDecision(seq)
		r.EmitDecision(&dec)
	}
	if _, got := r.LastDecisions(10); len(got) != 3 {
		t.Fatalf("%d decisions across a restated header, want 3", len(got))
	}
	r.SetMeta([]string{"a", "b", "c"}, "m2", 72)
	if _, got := r.LastDecisions(10); len(got) != 0 {
		t.Fatalf("%d decisions after a meta change, want 0", len(got))
	}
}

// TestTraceRingHeaderPerSink pins the meta header discipline: one header
// record per sink generation, re-emitted when a fresh sink is attached so
// every .ftrace file is self-describing.
func TestTraceRingHeaderPerSink(t *testing.T) {
	r := NewTraceRing(16)
	r.SetMeta([]string{"a"}, "manual", 72)
	r.SetMeta([]string{"a"}, "manual", 72) // idempotent: no second header

	var first bytes.Buffer
	r.SetSink(&first)
	dec := testDecision(0)
	r.EmitDecision(&dec)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	kinds, _ := decodeImage(t, first.Bytes())
	if want := []byte{FTraceKindHeader, FTraceKindDecision}; !bytes.Equal(kinds, want) {
		t.Fatalf("first sink kinds %v, want %v", kinds, want)
	}

	var second bytes.Buffer
	r.SetSink(&second)
	r.EmitDecision(&dec)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	kinds, _ = decodeImage(t, second.Bytes())
	if want := []byte{FTraceKindHeader, FTraceKindDecision}; !bytes.Equal(kinds, want) {
		t.Fatalf("second sink kinds %v, want %v (header must re-emit per sink)", kinds, want)
	}

	// The ring itself carries every header generation: the sink-less SetMeta
	// (so Snapshot is self-describing before any sink) plus one per SetSink.
	kinds, _ = decodeImage(t, r.Snapshot())
	headers := 0
	for _, k := range kinds {
		if k == FTraceKindHeader {
			headers++
		}
	}
	if headers != 3 {
		t.Fatalf("ring holds %d header records, want 3 (SetMeta + one per sink generation)", headers)
	}
}

func TestTraceRingEmptySnapshot(t *testing.T) {
	r := NewTraceRing(4)
	snap := r.Snapshot()
	if kinds, _ := decodeImage(t, snap); len(kinds) != 0 {
		t.Fatalf("empty ring snapshot holds records %v", kinds)
	}
	if len(snap) != ckpt.FrameHeaderSize {
		t.Fatalf("empty snapshot is %d bytes, want one empty %d-byte frame", len(snap), ckpt.FrameHeaderSize)
	}
}

// TestAppendSnapshotReusesBuffer pins the /v1/trace/snapshot copy: appended
// after a prefix it is the Snapshot image byte for byte, and appended into
// the previous image's buffer it allocates nothing.
func TestAppendSnapshotReusesBuffer(t *testing.T) {
	r := NewTraceRing(16)
	r.SetMeta([]string{"fa"}, "manual", 72)
	for i := 0; i < 40; i++ { // wraps: the image leads with the evicted header
		r.EmitDecision(&ExplainRecord{Seq: i, Features: []float64{float64(i)}})
	}
	want := r.Snapshot()
	got := r.AppendSnapshot([]byte("prefix"))
	if string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want) {
		t.Fatalf("AppendSnapshot after a prefix differs from Snapshot")
	}
	buf := r.AppendSnapshot(nil)
	if allocs := testing.AllocsPerRun(20, func() { buf = r.AppendSnapshot(buf[:0]) }); allocs != 0 {
		t.Fatalf("AppendSnapshot into the previous image allocates %.0f times", allocs)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("reused-buffer image differs from Snapshot")
	}
	if got := new(TraceRing).AppendSnapshot([]byte("x")); string(got) != "x"+string(new(TraceRing).Snapshot()) {
		t.Fatalf("empty ring appends %q", got)
	}
}

func TestNilTraceRingSafe(t *testing.T) {
	var r *TraceRing
	r.EmitSpan(&Span{ID: 1})
	r.EmitDecision(&ExplainRecord{})
	r.EmitProc(ProcStats{})
	r.SetMeta([]string{"a"}, "m", 1)
	r.SetSink(&bytes.Buffer{})
	r.Instrument(NewRegistry())
	if r.Len() != 0 || r.Cap() != 0 || r.Total() != 0 || r.Dropped() != 0 ||
		r.Oversized() != 0 || r.Flush() != nil || r.SinkErr() != nil {
		t.Fatal("nil ring leaked state")
	}
	if names, recs := r.LastDecisions(1); names != nil || recs != nil {
		t.Fatal("nil ring leaked state")
	}
	if kinds, _ := decodeImage(t, r.Snapshot()); len(kinds) != 0 {
		t.Fatalf("nil ring snapshot holds records %v", kinds)
	}
}

// TestLastDecisions pins the /v1/explain/last read-out: the newest n
// decision records, oldest first, whatever else shares the ring.
func TestLastDecisions(t *testing.T) {
	seqs := func(recs []ExplainRecord) []int {
		out := make([]int, len(recs))
		for i := range recs {
			out[i] = recs[i].Seq
		}
		return out
	}
	r := NewTraceRing(8)
	if _, got := r.LastDecisions(4); got == nil || len(got) != 0 {
		t.Fatalf("empty ring returned %v, want empty and non-nil", got)
	}
	r.SetMeta([]string{"a"}, "m", 1) // header slot
	for seq := 0; seq < 3; seq++ {
		dec := testDecision(seq)
		r.EmitDecision(&dec)
		r.EmitSpan(&Span{ID: SpanID(seq + 1), Name: "decision"})
	}
	r.EmitProc(ProcStats{Wall: 1})
	if _, got := r.LastDecisions(10); !reflect.DeepEqual(seqs(got), []int{0, 1, 2}) {
		t.Fatalf("n > held: seqs %v, want [0 1 2]", seqs(got))
	}
	names, got := r.LastDecisions(2)
	if !reflect.DeepEqual(names, []string{"a"}) {
		t.Fatalf("names %v, want the meta's [a]", names)
	}
	if !reflect.DeepEqual(seqs(got), []int{1, 2}) {
		t.Fatalf("n < held: seqs %v, want [1 2]", seqs(got))
	}
	if want := testDecision(2); !reflect.DeepEqual(got[1], want) {
		t.Fatalf("decoded record:\n got %+v\nwant %+v", got[1], want)
	}
	if names, recs := r.LastDecisions(0); names != nil || recs != nil {
		t.Fatal("n <= 0 must return nil")
	}

	// Wrapped: 8 slots now hold header + 3x(decision, span) + proc; eight more
	// records evict the oldest eight, leaving decisions 3..6 between spans.
	for seq := 3; seq < 7; seq++ {
		dec := testDecision(seq)
		r.EmitDecision(&dec)
		r.EmitSpan(&Span{ID: SpanID(seq + 1), Name: "decision"})
	}
	if r.Dropped() == 0 {
		t.Fatal("ring did not wrap; the wrapped case is not exercised")
	}
	if _, got := r.LastDecisions(10); !reflect.DeepEqual(seqs(got), []int{3, 4, 5, 6}) {
		t.Fatalf("wrapped ring: seqs %v, want [3 4 5 6]", seqs(got))
	}

	// A meta change: only the decisions after its header, under its names.
	r.SetMeta([]string{"x", "y"}, "m2", 1)
	if names, got := r.LastDecisions(10); !reflect.DeepEqual(names, []string{"x", "y"}) || got == nil || len(got) != 0 {
		t.Fatalf("after a meta change: names %v, seqs %v; want [x y] and none", names, seqs(got))
	}
	dec := testDecision(7)
	dec.Features = []float64{1, 2}
	r.EmitDecision(&dec)
	if names, got := r.LastDecisions(10); len(names) != 2 || !reflect.DeepEqual(seqs(got), []int{7}) {
		t.Fatalf("after a meta change: names %v, seqs %v; want [x y] and [7]", names, seqs(got))
	}

	// Readers against concurrent writers: every read is an ascending run of
	// whole records (run under -race by the Makefile race target).
	t.Run("concurrent", func(t *testing.T) {
		r := NewTraceRing(16)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; seq < 2000; seq++ {
				dec := testDecision(seq)
				r.EmitDecision(&dec)
			}
		}()
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					_, got := r.LastDecisions(8)
					for k := 1; k < len(got); k++ {
						if got[k].Seq != got[k-1].Seq+1 || len(got[k].Features) != 3 {
							t.Errorf("torn read: %v", seqs(got))
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestTraceRingBorrowedSlices pins the no-ownership contract: the ring
// copies slice contents into its arena at emit time, so the caller may
// mutate and reuse the backing arrays immediately.
func TestTraceRingBorrowedSlices(t *testing.T) {
	r := NewTraceRing(8)
	feats := []float64{1, 2}
	dec := testDecision(0)
	dec.Features, dec.Logits, dec.Probs = feats, nil, nil
	r.EmitDecision(&dec)
	feats[0], feats[1] = -9, -9 // scratch reuse after emit
	_, bodies := decodeImage(t, r.Snapshot())
	got, err := DecodeFTraceDecision(bodies[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.Features[0] != 1 || got.Features[1] != 2 {
		t.Fatalf("arena aliased the caller's scratch: %v", got.Features)
	}
}

// TestTraceRingConcurrent hammers the emit paths and cold readers from many
// goroutines; under -race this pins the single-mutex discipline.
func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				dec := testDecision(i)
				dec.Traj = g
				r.EmitDecision(&dec)
				if i%17 == 0 {
					_ = r.Snapshot()
					_ = r.Len()
					_ = r.Dropped()
				}
			}
		}(g)
	}
	wg.Wait()
	if r.Total() != 1600 {
		t.Fatalf("Total = %d, want 1600", r.Total())
	}
	if r.Len() != 32 {
		t.Fatalf("ring holds %d, want 32", r.Len())
	}
}

// TestAppendJSONLRendersOnce pins the render-once contract: a call renders
// exactly the records that arrived since the previous one, at most Cap()
// when more than a ring's worth arrived, and a warm call on an unchanged
// ring allocates nothing when its views slice is reused.
func TestAppendJSONLRendersOnce(t *testing.T) {
	r := NewTraceRing(64)
	r.SetMeta([]string{"a", "b", "c"}, "manual", 72)
	emit := func(n int) {
		for i := 0; i < n; i++ {
			dec := testDecision(i)
			r.EmitDecision(&dec)
		}
	}
	var views [][]byte
	call := func(want uint64) {
		t.Helper()
		before := r.jsonl.renders
		var err error
		if views, _, err = r.AppendJSONL(views[:0]); err != nil {
			t.Fatal(err)
		}
		if got := r.jsonl.renders - before; got != want {
			t.Fatalf("call rendered %d records, want %d", got, want)
		}
	}
	emit(10)
	call(11) // the header and ten decisions
	emit(7)
	call(7)
	call(0)
	emit(r.Cap() + 5) // wraps: the window opens with the evicted header
	call(uint64(r.Cap()))
	emit(3)
	call(3)
	emit(r.Cap())
	call(uint64(r.Cap()))
	if lines := bytes.Count(bytes.Join(views, nil), []byte{'\n'}); lines != r.Cap()+1 {
		t.Fatalf("%d lines, want the evicted header and %d decisions", lines, r.Cap())
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(20, func() { views, _, _ = r.AppendJSONL(views[:0]) }); allocs != 0 {
		t.Fatalf("a warm call on an unchanged ring allocates %.0f times", allocs)
	}
}

// TestEmitDoesNotWaitForJSONL: AppendJSONL renders under the JSONL cache's
// own lock, which no emit or other reader takes, so a render in progress
// (here, the cache lock held) stalls no decision.
func TestEmitDoesNotWaitForJSONL(t *testing.T) {
	r := NewTraceRing(8)
	r.jsonl.mu.Lock()
	defer r.jsonl.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		dec := testDecision(0)
		r.EmitDecision(&dec)
		r.AppendSnapshot(nil)
		r.LastDecisions(1)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("an emit or a snapshot waited for the JSONL cache lock")
	}
}
