package obs

import (
	"fmt"

	"schedinspector/internal/ckpt"
)

// Decoders for the .ftrace record bodies encoded in ring.go. Field order
// here must mirror the put* encoders; any divergence is an FTraceVersion
// bump. Every body is read with one ckpt.Reader, whose first failure
// sticks, so a decoder reads linearly and checks once, in bodyDone.

// bodyDone returns rd's first failure, or an error if any bytes are left
// unread, naming the kind of body.
func bodyDone(kind string, rd *ckpt.Reader) error {
	if err := rd.Done(); err != nil {
		return fmt.Errorf("obs: ftrace %s body: %w", kind, err)
	}
	return nil
}

// DecodeFTraceSpan decodes one FTraceKindSpan body.
func DecodeFTraceSpan(body []byte) (Span, error) {
	rd := ckpt.NewReader(body)
	s := Span{
		ID:        SpanID(rd.U64()),
		Parent:    SpanID(rd.U64()),
		Name:      rd.Str(),
		WallStart: int64(rd.U64()),
		WallEnd:   int64(rd.U64()),
		SimStart:  rd.F64(),
		SimEnd:    rd.F64(),
	}
	// An attribute occupies at least 16 encoded bytes, bounding the count
	// a corrupt body can claim before allocation.
	if n := rd.U32(); n > 0 && n <= uint32(rd.Len()/16) {
		s.Attrs = make([]Attr, n)
		for i := range s.Attrs {
			s.Attrs[i] = Attr{Key: rd.Str(), Num: rd.F64(), Str: rd.Str()}
		}
	} else if n != 0 {
		rd.Fail("%d attributes claimed, %d bytes left", n, rd.Len())
	}
	return s, bodyDone("span", &rd)
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
	rd := ckpt.NewReader(body)
	r.Epoch = int(rd.U64())
	r.Traj = int(rd.U64())
	r.Seq = int(rd.U64())
	r.Time = rd.F64()
	r.JobID = int(rd.U64())
	r.Wait = rd.F64()
	r.Procs = int(rd.U64())
	r.Est = rd.F64()
	r.Rejections = int(rd.U64())
	r.MaxRejections = int(rd.U64())
	r.QueueLen = int(rd.U64())
	r.FreeProcs = int(rd.U64())
	r.TotalProcs = int(rd.U64())
	r.Utilization = rd.F64()
	r.Action = int(rd.U64())
	r.Sampled = rd.Bool()
	r.Rejected = rd.Bool()
	r.Features = rd.F64sInto(r.Features)
	r.Logits = rd.F64sInto(r.Logits)
	r.Probs = rd.F64sInto(r.Probs)
	return bodyDone("decision", &rd)
}

// DecodeFTraceHeader decodes one FTraceKindHeader body. The Kind field is
// restored to the JSONL discriminator "explain_header".
func DecodeFTraceHeader(body []byte) (ExplainHeader, error) {
	rd := ckpt.NewReader(body)
	h := ExplainHeader{Kind: "explain_header", Mode: rd.Str()}
	// A feature name occupies at least 4 encoded bytes, bounding the count.
	if n := rd.U32(); n > 0 && n <= uint32(rd.Len()/4) {
		h.Features = make([]string, n)
		for i := range h.Features {
			h.Features[i] = rd.Str()
		}
	} else if n != 0 {
		rd.Fail("%d feature names claimed, %d bytes left", n, rd.Len())
	}
	h.MaxRejections = int(rd.U64())
	return h, bodyDone("header", &rd)
}

// DecodeFTraceProc decodes one FTraceKindProc body.
func DecodeFTraceProc(body []byte) (ProcStats, error) {
	rd := ckpt.NewReader(body)
	s := ProcStats{
		Wall:       int64(rd.U64()),
		Goroutines: int(rd.U64()),
		HeapAlloc:  rd.U64(),
		HeapSys:    rd.U64(),
		NumGC:      rd.U32(),
		PauseTotal: rd.U64(),
	}
	return s, bodyDone("proc", &rd)
}
