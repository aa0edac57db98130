package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDeriveSpanIDDeterministic(t *testing.T) {
	a := DeriveSpanID(7, 3, 1)
	b := DeriveSpanID(7, 3, 1)
	if a != b {
		t.Fatalf("same tags, different IDs: %d vs %d", a, b)
	}
	if a == 0 {
		t.Fatalf("derived ID is the reserved zero")
	}
	if DeriveSpanID(7, 3, 2) == a || DeriveSpanID(3, 7, 1) == a {
		t.Fatalf("distinct tag chains collided with %d", a)
	}
	if DeriveSpanID() == 0 {
		t.Fatalf("empty chain yielded zero")
	}
}

// The tests below predate the single recorder. Each pinned one behaviour of
// the JSON span tracer, the explain recorder or their bundle, and now pins
// the same behaviour of the ring that took over those roles; their names are
// kept so the suite stays comparable across the change.

// renderJSONL renders a .ftrace image as flight-trace JSONL through the obs
// wire-form helpers — the test-side mirror of explain.ConvertFTrace, which an
// in-package obs test cannot import.
func renderJSONL(t *testing.T, img []byte) string {
	t.Helper()
	kinds, bodies := decodeImage(t, img)
	var out []byte
	for i, k := range kinds {
		var err error
		switch k {
		case FTraceKindHeader:
			var h ExplainHeader
			if h, err = DecodeFTraceHeader(bodies[i]); err == nil {
				out, err = AppendExplainHeaderJSONL(out, h)
			}
		case FTraceKindSpan:
			var s Span
			if s, err = DecodeFTraceSpan(bodies[i]); err == nil {
				out, err = AppendSpanJSONL(out, &s)
			}
		case FTraceKindDecision:
			var d ExplainRecord
			if d, err = DecodeFTraceDecision(bodies[i]); err == nil {
				out, err = AppendDecisionJSONL(out, &d)
			}
		case FTraceKindProc:
			var p ProcStats
			if p, err = DecodeFTraceProc(bodies[i]); err == nil {
				out, err = AppendProcJSONL(out, p)
			}
		}
		if err != nil {
			t.Fatalf("record %d (kind %d): %v", i, k, err)
		}
	}
	return string(out)
}

// sinkImage flushes r and returns what its sink buffer received.
func sinkImage(t *testing.T, r *TraceRing, sink *bytes.Buffer) []byte {
	t.Helper()
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	return sink.Bytes()
}

func TestSpanTracerRing(t *testing.T) {
	r := NewTraceRing(3)
	for i := 1; i <= 5; i++ {
		r.EmitSpan(&Span{ID: SpanID(i), Name: "s"})
	}
	_, bodies := decodeImage(t, r.Snapshot())
	if len(bodies) != 3 {
		t.Fatalf("ring held %d spans, want 3", len(bodies))
	}
	for i, want := range []SpanID{3, 4, 5} {
		got, err := DecodeFTraceSpan(bodies[i])
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != want {
			t.Fatalf("span[%d].ID = %d, want %d (oldest-first after wraparound)", i, got.ID, want)
		}
	}
	if r.Total() != 5 || r.Dropped() != 2 {
		t.Fatalf("Total/Dropped = %d/%d, want 5/2", r.Total(), r.Dropped())
	}
}

func TestNilSpanTracerSafe(t *testing.T) {
	var r *TraceRing
	r.EmitSpan(&Span{ID: 1})
	if r.Total() != 0 || r.Dropped() != 0 {
		t.Fatalf("nil ring leaked state")
	}
}

func TestSpanStartEnd(t *testing.T) {
	orig := wallNow
	now := int64(1000)
	wallNow = func() int64 { now += 5; return now }
	defer func() { wallNow = orig }()

	s := StartSpan("decision", 42, 7, 12.5)
	s.Attrs = append(s.Attrs, Attr{Key: "job", Num: 3})
	s.End(13.0)
	if s.ID != 42 || s.Parent != 7 || s.Name != "decision" {
		t.Fatalf("span identity mangled: %+v", s)
	}
	if s.WallEnd <= s.WallStart {
		t.Fatalf("wall clock did not advance: %d..%d", s.WallStart, s.WallEnd)
	}
	if s.SimStart != 12.5 || s.SimEnd != 13.0 {
		t.Fatalf("sim times wrong: %v..%v", s.SimStart, s.SimEnd)
	}
}

func TestSpanJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	r := NewTraceRing(8)
	r.SetSink(&buf)
	s := StartSpan("episode", 9, 2, 0)
	s.Attrs = []Attr{{Key: "slot", Num: 4}, {Key: "mode", Str: "wave"}}
	s.End(99)
	r.EmitSpan(&s)

	var line struct {
		Kind string `json:"kind"`
		Span
	}
	out := renderJSONL(t, sinkImage(t, r, &buf))
	if err := json.Unmarshal([]byte(out), &line); err != nil {
		t.Fatalf("rendered line not JSON: %v\n%s", err, out)
	}
	if line.Kind != "span" || line.ID != 9 || line.Parent != 2 || line.SimEnd != 99 {
		t.Fatalf("round-trip mismatch: %+v", line)
	}
	if len(line.Attrs) != 2 || line.Attrs[0].Key != "slot" || line.Attrs[1].Str != "wave" {
		t.Fatalf("attrs mangled: %+v", line.Attrs)
	}
}

// TestSpanSinkErrorSticks: a sink that fails its very first write (the
// first frame flush) is disabled on the spot and the ring keeps recording.
func TestSpanSinkErrorSticks(t *testing.T) {
	r := NewTraceRing(4)
	r.SetSink(&failWriter{})
	r.EmitSpan(&Span{ID: 1})
	if r.Flush() == nil || r.SinkErr() == nil {
		t.Fatalf("write error not recorded")
	}
	r.EmitSpan(&Span{ID: 2}) // must not panic; ring keeps working
	if r.Len() != 2 {
		t.Fatalf("ring stopped after sink error")
	}
	if r.Flush() == nil {
		t.Fatalf("sticky error cleared by a flush")
	}
}

// TestSpanTracerConcurrent hammers EmitSpan (bare and attributed spans) and
// the cold readers from many goroutines; run under -race this pins that ring
// wraparound and reads during writes are safe.
func TestSpanTracerConcurrent(t *testing.T) {
	r := NewTraceRing(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := DeriveSpanID(uint64(g), uint64(i))
				if i%2 == 0 {
					r.EmitSpan(&Span{ID: id, Name: "x"})
				} else {
					r.EmitSpan(&Span{ID: id, Parent: 1, Name: "y", Attrs: []Attr{{Key: "action", Str: "accept"}, {Key: "i", Num: float64(i)}}})
				}
				if i%17 == 0 {
					_ = r.Snapshot()
					_, _ = r.LastDecisions(4)
					_ = r.Dropped()
				}
			}
		}(g)
	}
	wg.Wait()
	if r.Total() != 1600 {
		t.Fatalf("Total = %d, want 1600", r.Total())
	}
	if r.Len() != 16 {
		t.Fatalf("ring holds %d, want 16", r.Len())
	}
}

func TestNilExplainRecorderSafe(t *testing.T) {
	var r *TraceRing
	r.EmitDecision(&ExplainRecord{})
	r.SetMeta([]string{"a"}, "manual", 72)
	if names, recs := r.LastDecisions(1); names != nil || recs != nil || r.Total() != 0 {
		t.Fatalf("nil ring leaked state")
	}
}

func TestExplainHeaderAndDecisionLines(t *testing.T) {
	var buf bytes.Buffer
	r := NewTraceRing(8)
	// Meta before sink: header must still come out once the sink lands.
	r.SetMeta([]string{"wait", "procs"}, "manual", 72)
	r.SetSink(&buf)
	r.SetMeta([]string{"wait", "procs"}, "manual", 72) // idempotent: no second header
	r.EmitDecision(&ExplainRecord{Traj: 1, Seq: 0, JobID: 42, Rejected: true,
		Features: []float64{0.5, 0.25}, Logits: []float64{0.1, -0.1}, Probs: []float64{0.55, 0.45}})

	sc := bufio.NewScanner(strings.NewReader(renderJSONL(t, sinkImage(t, r, &buf))))
	if !sc.Scan() {
		t.Fatalf("no header line")
	}
	var hdr ExplainHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("header not JSON: %v", err)
	}
	if hdr.Kind != "explain_header" || hdr.Mode != "manual" || hdr.MaxRejections != 72 || len(hdr.Features) != 2 {
		t.Fatalf("header mangled: %+v", hdr)
	}
	if !sc.Scan() {
		t.Fatalf("no decision line")
	}
	var dec struct {
		Kind string `json:"kind"`
		ExplainRecord
	}
	if err := json.Unmarshal(sc.Bytes(), &dec); err != nil {
		t.Fatalf("decision not JSON: %v", err)
	}
	if dec.Kind != "decision" || dec.JobID != 42 || !dec.Rejected || len(dec.Probs) != 2 {
		t.Fatalf("decision mangled: %+v", dec)
	}
	if sc.Scan() {
		t.Fatalf("unexpected extra line (duplicate header?): %s", sc.Text())
	}
}

// TestExplainRecorderConcurrent races decision writers against meta changes
// and the two readers that serve /v1/explain/last.
func TestExplainRecorderConcurrent(t *testing.T) {
	r := NewTraceRing(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.EmitDecision(&ExplainRecord{Traj: g, Seq: i})
				if i%13 == 0 {
					r.SetMeta([]string{"a", "b"}[:1+i%2], "m", g)
					_, _ = r.LastDecisions(4)
				}
			}
		}(g)
	}
	wg.Wait()
	if _, recs := r.LastDecisions(1 << 10); len(recs) == 0 || len(recs) > 32 {
		t.Fatalf("ring of 32 returned %d decisions", len(recs))
	}
}

// TestExplainRecorderMetaChangeReemitsHeader is the JSONL twin of
// TestTraceRingMetaChangeReemitsHeader: the rendered stream keeps every
// decision line under the header line that describes it.
func TestExplainRecorderMetaChangeReemitsHeader(t *testing.T) {
	r := NewTraceRing(16)
	var sink bytes.Buffer
	r.SetSink(&sink)

	r.SetMeta([]string{"a", "b"}, "modeA", 3)
	r.EmitDecision(&ExplainRecord{Features: []float64{1, 2}})
	r.SetMeta([]string{"a", "b"}, "modeA", 3) // restated
	r.SetMeta([]string{"x", "y", "z"}, "modeB", 5)
	r.EmitDecision(&ExplainRecord{Features: []float64{1, 2, 3}})

	var kinds []string
	curFeatures := 0
	sc := bufio.NewScanner(strings.NewReader(renderJSONL(t, sinkImage(t, r, &sink))))
	for sc.Scan() {
		var line struct {
			Kind     string            `json:"kind"`
			Features []json.RawMessage `json:"features"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, line.Kind)
		switch line.Kind {
		case "explain_header":
			curFeatures = len(line.Features)
		case "decision":
			if len(line.Features) != curFeatures {
				t.Errorf("decision carries %d features under a %d-feature header",
					len(line.Features), curFeatures)
			}
		}
	}
	want := []string{"explain_header", "decision", "explain_header", "decision"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Errorf("stream kinds %v, want %v", kinds, want)
	}
}

// TestFlightRecorderSharedSink: every record kind shares the one sink
// stream, in emission order.
func TestFlightRecorderSharedSink(t *testing.T) {
	var buf bytes.Buffer
	r := NewTraceRing(8)
	r.SetMeta([]string{"wait"}, "manual", 72)
	r.SetSink(&buf)
	r.EmitSpan(&Span{ID: 1, Name: "episode"})
	r.EmitDecision(&ExplainRecord{Seq: 7})
	r.EmitProc(ProcStats{Wall: 1})

	var kinds []string
	sc := bufio.NewScanner(strings.NewReader(renderJSONL(t, sinkImage(t, r, &buf))))
	for sc.Scan() {
		var k struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &k); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, k.Kind)
	}
	if got, want := strings.Join(kinds, ","), "explain_header,span,decision,proc"; got != want {
		t.Fatalf("line kinds %s, want %s", got, want)
	}
}

func TestNilFlightRecorderSafe(t *testing.T) {
	var r *TraceRing
	r.SetSink(&bytes.Buffer{})
	if r.Flush() != nil || r.SinkErr() != nil {
		t.Fatalf("nil flight recorder leaked state")
	}
	if kinds, _ := decodeImage(t, r.Snapshot()); len(kinds) != 0 {
		t.Fatalf("nil ring snapshot holds records %v", kinds)
	}
}

// procRecords decodes the proc samples a ring holds, oldest first.
func procRecords(t *testing.T, r *TraceRing) []ProcStats {
	t.Helper()
	var out []ProcStats
	kinds, bodies := decodeImage(t, r.Snapshot())
	for i, kind := range kinds {
		if kind != FTraceKindProc {
			continue
		}
		ps, err := DecodeFTraceProc(bodies[i])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ps)
	}
	return out
}

func TestProcSampler(t *testing.T) {
	reg := NewRegistry()
	ring := NewTraceRing(0)
	p := NewProcSampler(reg, ring)
	s := p.Sample()
	if s.Goroutines <= 0 || s.HeapAlloc == 0 {
		t.Fatalf("implausible snapshot: %+v", s)
	}
	for i := 0; i < 6; i++ {
		p.Sample()
	}
	recs := procRecords(t, ring)
	if len(recs) != 7 || recs[0] != s {
		t.Fatalf("ring holds %d proc records, first %+v; want 7 starting with %+v", len(recs), recs, s)
	}
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := buf.String()
	for _, name := range []string{"schedinspector_goroutines", "schedinspector_heap_alloc_bytes", "schedinspector_heap_sys_bytes", "schedinspector_gc_cycles_total"} {
		if !strings.Contains(out, name) {
			t.Fatalf("gauge %s missing from exposition:\n%s", name, out)
		}
	}
}

func TestProcSamplerStartStop(t *testing.T) {
	ring := NewTraceRing(0)
	p := NewProcSampler(nil, ring)
	stop := p.Start(time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for len(procRecords(t, ring)) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	if len(procRecords(t, ring)) < 2 {
		t.Fatalf("ticker never sampled")
	}
	// Restart after stop must be allowed.
	stop2 := p.Start(time.Hour)
	stop2()
}
