package obs

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Decoders for the .ftrace record bodies encoded in ring.go. Field order
// here must mirror the put* encoders; any divergence is an FTraceVersion
// bump.

// ftraceReader is a bounds-checked little-endian cursor over one record
// body. The first out-of-bounds read trips the err flag and poisons every
// later read, so decoders check the error once at the end.
type ftraceReader struct {
	b   []byte
	o   int
	err bool
}

func (d *ftraceReader) u32() uint32 {
	if d.err || d.o+4 > len(d.b) {
		d.err = true
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.o:])
	d.o += 4
	return v
}

func (d *ftraceReader) u64() uint64 {
	if d.err || d.o+8 > len(d.b) {
		d.err = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.o:])
	d.o += 8
	return v
}

func (d *ftraceReader) i64() int64 { return int64(d.u64()) }

func (d *ftraceReader) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *ftraceReader) str() string {
	n := int(d.u32())
	if d.err || n < 0 || d.o+n > len(d.b) {
		d.err = true
		return ""
	}
	s := string(d.b[d.o : d.o+n])
	d.o += n
	return s
}

func (d *ftraceReader) bool() bool {
	if d.err || d.o+1 > len(d.b) {
		d.err = true
		return false
	}
	v := d.b[d.o] != 0
	d.o++
	return v
}

// f64s decodes a counted float slice into dst's backing array when it is
// large enough. A zero count yields nil, matching the nil slices the JSONL
// path round-trips.
func (d *ftraceReader) f64s(dst []float64) []float64 {
	n := int(d.u32())
	if d.err || n < 0 || d.o+8*n > len(d.b) {
		d.err = true
		return nil
	}
	if n == 0 {
		return nil
	}
	vs := dst[:0]
	if cap(vs) < n {
		vs = make([]float64, n)
	}
	vs = vs[:n]
	for i := range vs {
		vs[i] = d.f64()
	}
	return vs
}

// done validates that the body was consumed exactly.
func (d *ftraceReader) done(kind string) error {
	if d.err {
		return fmt.Errorf("obs: truncated ftrace %s body (%d bytes)", kind, len(d.b))
	}
	if d.o != len(d.b) {
		return fmt.Errorf("obs: ftrace %s body has %d trailing bytes", kind, len(d.b)-d.o)
	}
	return nil
}

// DecodeFTraceSpan decodes one FTraceKindSpan body.
func DecodeFTraceSpan(body []byte) (Span, error) {
	d := ftraceReader{b: body}
	s := Span{
		ID:        SpanID(d.u64()),
		Parent:    SpanID(d.u64()),
		Name:      d.str(),
		WallStart: d.i64(),
		WallEnd:   d.i64(),
		SimStart:  d.f64(),
		SimEnd:    d.f64(),
	}
	// An attribute occupies at least 16 encoded bytes, bounding the count
	// a corrupt body can claim before allocation.
	n := int(d.u32())
	if !d.err && n > 0 && n <= (len(body)-d.o)/16 {
		s.Attrs = make([]Attr, n)
		for i := range s.Attrs {
			s.Attrs[i] = Attr{Key: d.str(), Num: d.f64(), Str: d.str()}
		}
	} else if n != 0 {
		d.err = true
	}
	return s, d.done("span")
}

// DecodeFTraceDecision decodes one FTraceKindDecision body.
func DecodeFTraceDecision(body []byte) (ExplainRecord, error) {
	var r ExplainRecord
	err := DecodeFTraceDecisionInto(&r, body)
	return r, err
}

// DecodeFTraceDecisionInto decodes one FTraceKindDecision body into r,
// reusing the backing arrays of r's slices, so a reader that renders one
// record at a time decodes every record into the same one. An empty slice
// still decodes as nil.
func DecodeFTraceDecisionInto(r *ExplainRecord, body []byte) error {
	d := ftraceReader{b: body}
	r.Epoch = int(d.i64())
	r.Traj = int(d.i64())
	r.Seq = int(d.i64())
	r.Time = d.f64()
	r.JobID = int(d.i64())
	r.Wait = d.f64()
	r.Procs = int(d.i64())
	r.Est = d.f64()
	r.Rejections = int(d.i64())
	r.MaxRejections = int(d.i64())
	r.QueueLen = int(d.i64())
	r.FreeProcs = int(d.i64())
	r.TotalProcs = int(d.i64())
	r.Utilization = d.f64()
	r.Action = int(d.i64())
	r.Sampled = d.bool()
	r.Rejected = d.bool()
	r.Features = d.f64s(r.Features)
	r.Logits = d.f64s(r.Logits)
	r.Probs = d.f64s(r.Probs)
	return d.done("decision")
}

// DecodeFTraceHeader decodes one FTraceKindHeader body. The Kind field is
// restored to the JSONL discriminator "explain_header".
func DecodeFTraceHeader(body []byte) (ExplainHeader, error) {
	d := ftraceReader{b: body}
	h := ExplainHeader{Kind: "explain_header", Mode: d.str()}
	// A feature name occupies at least 4 encoded bytes, bounding the count.
	n := int(d.u32())
	if !d.err && n >= 0 && n <= (len(body)-d.o)/4 {
		if n > 0 {
			h.Features = make([]string, n)
			for i := range h.Features {
				h.Features[i] = d.str()
			}
		}
	} else {
		d.err = true
	}
	h.MaxRejections = int(d.i64())
	return h, d.done("header")
}

// DecodeFTraceProc decodes one FTraceKindProc body.
func DecodeFTraceProc(body []byte) (ProcStats, error) {
	d := ftraceReader{b: body}
	s := ProcStats{
		Wall:       d.i64(),
		Goroutines: int(d.i64()),
		HeapAlloc:  d.u64(),
		HeapSys:    d.u64(),
		NumGC:      d.u32(),
		PauseTotal: d.u64(),
	}
	return s, d.done("proc")
}
