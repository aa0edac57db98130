package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// The JSONL appenders' oracle is encoding/json itself: json.Marshal of the
// wire wrappers below — the types the appenders replaced — plus a newline.

type jsonExplain struct {
	Kind string `json:"kind"`
	ExplainRecord
}

type jsonSpan struct {
	Kind string `json:"kind"`
	Span
}

type jsonProc struct {
	Kind string `json:"kind"`
	ProcStats
}

// jsonlPrefix is what every appender call appends after; its capacity is
// its length, so the first append reallocates and the test also sees that
// a failed line hands back exactly the prefix.
const jsonlPrefix = "prefix\n"

// checkAppender requires got/err from an appender called on jsonlPrefix to
// be the prefix plus json.Marshal(v) and suffix, or the prefix alone and
// the same error when Marshal fails.
func checkAppender(t *testing.T, name string, v any, suffix string, got []byte, err error) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	if wantErr == nil {
		want = append([]byte(jsonlPrefix), append(want, suffix...)...)
	} else {
		want = []byte(jsonlPrefix)
	}
	if !sameMarshalError(err, wantErr) {
		t.Fatalf("%s: error %v, encoding/json %v (value %+v)", name, err, wantErr, v)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %q\nwant %q", name, got, want)
	}
}

// sameMarshalError compares two json.Marshal-shaped errors: both nil, or
// both *json.UnsupportedValueError naming the same value bit for bit.
func sameMarshalError(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	var g, w *json.UnsupportedValueError
	if !errors.As(got, &g) || !errors.As(want, &w) {
		return false
	}
	return g.Error() == w.Error() && g.Str == w.Str &&
		math.Float64bits(g.Value.Float()) == math.Float64bits(w.Value.Float())
}

func prefixed() []byte { return []byte(jsonlPrefix)[:len(jsonlPrefix):len(jsonlPrefix)] }

// checkJSONL runs every appender over one value of each record type.
func checkJSONL(t *testing.T, rec *ExplainRecord, span *Span, hdr ExplainHeader, proc ProcStats) {
	t.Helper()
	got, err := AppendDecisionJSONL(prefixed(), rec)
	checkAppender(t, "decision", jsonExplain{Kind: "decision", ExplainRecord: *rec}, "\n", got, err)
	got, err = AppendExplainRecordJSON(prefixed(), rec)
	checkAppender(t, "record", rec, "", got, err)
	got, err = AppendSpanJSONL(prefixed(), span)
	checkAppender(t, "span", jsonSpan{Kind: "span", Span: *span}, "\n", got, err)
	got, err = AppendExplainHeaderJSONL(prefixed(), hdr)
	hdr.Kind = "explain_header"
	checkAppender(t, "header", hdr, "\n", got, err)
	got, err = AppendProcJSONL(prefixed(), proc)
	checkAppender(t, "proc", jsonProc{Kind: "proc", ProcStats: proc}, "\n", got, err)
}

// jsonlFloats are the float64 values where encoding/json's rendering
// changes shape or refuses: signed zeros, denormals, both sides of the 1e-6
// and 1e21 format switches, the extremes, and the non-finite values.
var jsonlFloats = []float64{
	0, math.Copysign(0, -1), 1, -1.5, 0.30000000000000004, 1.0 / 3, 100.25,
	5e-324, -5e-324, 2.2250738585072014e-308, math.Float64frombits(0x000fffffffffffff),
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, 1e-7, 1.5e-100,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 1.5e300, math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), math.Float64frombits(0xfff8000000000001), math.Inf(1), math.Inf(-1),
}

// jsonlStrings are the strings where encoding/json escapes: HTML-sensitive
// bytes, quotes and backslashes, every control-byte class, DEL (kept),
// U+2028/2029, multi-byte UTF-8 (kept) and invalid UTF-8.
var jsonlStrings = []string{
	"", "decision", "a<b>&c", `q"uo\te`, "\x00\x01\x1f\b\f\n\r\t", "\x7f",
	"line\u2028para\u2029", "é€𝄞", "\xff", "bad\xc3(utf8", "\xed\xa0\x80", "trunc\xe2\x82",
	"<script>\u2028</script>\xfe&amp;",
}

// jsonlSource builds record values from fuzz bytes: small selector bytes
// pick from the tables above, others take raw bits, so any input decodes
// and every float bit pattern and byte string is reachable.
type jsonlSource struct{ b []byte }

func (s *jsonlSource) u8() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *jsonlSource) u64() uint64 {
	var buf [8]byte
	n := copy(buf[:], s.b)
	s.b = s.b[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

func (s *jsonlSource) int() int {
	if c := s.u8(); c&1 == 0 {
		return int(int8(c)) >> 1
	}
	return int(s.u64())
}

func (s *jsonlSource) float() float64 {
	if c := int(s.u8()); c < len(jsonlFloats) {
		return jsonlFloats[c]
	}
	return math.Float64frombits(s.u64())
}

func (s *jsonlSource) str() string {
	if c := int(s.u8()); c < len(jsonlStrings) {
		return jsonlStrings[c]
	}
	n := min(int(s.u8())%24, len(s.b))
	str := string(s.b[:n])
	s.b = s.b[n:]
	return str
}

// count returns -1 (nil) or a small length.
func (s *jsonlSource) count() int {
	if c := s.u8(); c != 0xff {
		return int(c % 5)
	}
	return -1
}

func (s *jsonlSource) floats() []float64 {
	n := s.count()
	if n < 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = s.float()
	}
	return vs
}

func (s *jsonlSource) values() (ExplainRecord, Span, ExplainHeader, ProcStats) {
	rec := ExplainRecord{
		Epoch: s.int(), Traj: s.int(), Seq: s.int(), Time: s.float(),
		JobID: s.int(), Wait: s.float(), Procs: s.int(), Est: s.float(),
		Rejections: s.int(), MaxRejections: s.int(),
		QueueLen: s.int(), FreeProcs: s.int(), TotalProcs: s.int(), Utilization: s.float(),
		Features: s.floats(), Logits: s.floats(), Probs: s.floats(),
		Action: s.int(), Sampled: s.u8()&1 == 1, Rejected: s.u8()&1 == 1,
	}
	span := Span{ID: SpanID(s.u64()), Parent: SpanID(s.int()), Name: s.str(),
		WallStart: int64(s.int()), WallEnd: int64(s.int()), SimStart: s.float(), SimEnd: s.float()}
	if n := s.count(); n >= 0 {
		span.Attrs = make([]Attr, n)
		for i := range span.Attrs {
			span.Attrs[i] = Attr{Key: s.str(), Num: s.float(), Str: s.str()}
		}
	}
	hdr := ExplainHeader{Kind: s.str(), Mode: s.str(), MaxRejections: s.int()}
	if n := s.count(); n >= 0 {
		hdr.Features = make([]string, n)
		for i := range hdr.Features {
			hdr.Features[i] = s.str()
		}
	}
	proc := ProcStats{Wall: int64(s.int()), Goroutines: s.int(), HeapAlloc: s.u64(),
		HeapSys: s.u64(), NumGC: uint32(s.u64()), PauseTotal: s.u64()}
	return rec, span, hdr, proc
}

// TestAppendJSONLMatchesMarshal is the tier-1 half of FuzzAppendJSONL: every
// special float in every float position, every special string in every
// string position, nil against empty slices, zero and negative-zero
// omitempty members, then seeded random bytes through jsonlSource.
func TestAppendJSONLMatchesMarshal(t *testing.T) {
	base := func() (ExplainRecord, Span) {
		return ExplainRecord{Epoch: 1, Traj: 2, Seq: 3, Time: 4.5, JobID: 6, Wait: 7, Procs: 8, Est: 9,
				MaxRejections: 72, QueueLen: 2, FreeProcs: 32, TotalProcs: 64, Utilization: 0.5,
				Features: []float64{0.25}, Logits: []float64{1, -1}, Probs: []float64{0.75, 0.25},
				Action: 1, Sampled: true},
			Span{ID: 11, Parent: 3, Name: "decision", WallStart: -1, WallEnd: 1 << 62, SimStart: 1, SimEnd: 2,
				Attrs: []Attr{{Key: "job", Num: 7}, {Key: "verdict", Str: "reject"}}}
	}
	hdr := ExplainHeader{Mode: "manual", Features: []string{"wait", "procs"}, MaxRejections: 72}
	proc := ProcStats{Wall: 1700000000, Goroutines: 12, HeapAlloc: math.MaxUint64, HeapSys: 1, NumGC: math.MaxUint32, PauseTotal: 3}

	for _, f := range jsonlFloats {
		for field := 0; field < 8; field++ {
			rec, span := base()
			switch field {
			case 0:
				rec.Time = f
			case 1:
				rec.Wait, rec.Est = f, math.NaN() // the first non-finite member names the error
			case 2:
				rec.Utilization = f
			case 3:
				rec.Features = []float64{1, f, -f}
			case 4:
				rec.Probs = []float64{f}
			case 5:
				span.SimStart = f
			case 6:
				span.SimEnd, span.Attrs[0].Num = -f, f
			case 7:
				span.Attrs = []Attr{{Key: "k", Num: f}, {Key: "s", Str: "x", Num: math.Inf(1)}}
			}
			checkJSONL(t, &rec, &span, hdr, proc)
		}
	}
	for _, s := range jsonlStrings {
		rec, span := base()
		span.Name = s
		span.Attrs = []Attr{{Key: s, Str: s}, {Key: "n", Num: 1, Str: s}}
		checkJSONL(t, &rec, &span, ExplainHeader{Kind: s, Mode: s, Features: []string{s, "", s}}, proc)
	}
	negZero := math.Copysign(0, -1)
	for _, empty := range []bool{false, true} {
		rec, span := base()
		rec.Epoch, span.Parent = 0, 0
		rec.Features, rec.Logits, rec.Probs, span.Attrs = nil, nil, nil, nil
		h := ExplainHeader{Mode: "m"}
		if empty {
			rec.Features, rec.Logits, rec.Probs, span.Attrs = []float64{}, []float64{}, []float64{}, []Attr{}
			h.Features = []string{}
		}
		checkJSONL(t, &rec, &span, h, ProcStats{})
		span.Attrs = []Attr{{Key: "zero"}, {Key: "negzero", Num: negZero}, {Key: "neg", Num: -1}}
		rec.Time, rec.Wait = negZero, negZero
		checkJSONL(t, &rec, &span, h, ProcStats{})
	}

	rng := rand.New(rand.NewSource(20261015))
	n := 20000
	if testing.Short() {
		n = 2000
	}
	data := make([]byte, 256)
	for i := 0; i < n; i++ {
		rng.Read(data)
		src := jsonlSource{b: data[:rng.Intn(len(data))]}
		rec, span, hdr, proc := src.values()
		checkJSONL(t, &rec, &span, hdr, proc)
	}
}

// FuzzAppendJSONL builds one decision, span, header and proc sample from
// the fuzz bytes and requires each appender to write exactly what
// json.Marshal writes for the record's wire form, newline added, and to
// fail exactly when and how Marshal fails. Run with
// `go test -fuzz FuzzAppendJSONL ./internal/obs` (make fuzz-smoke does).
func FuzzAppendJSONL(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 4, 1, 6, 2, 8, 3, 10, 4, 12, 5, 14, 6, 16, 7, 18, 8})
	for i := range jsonlFloats {
		f.Add(bytes.Repeat([]byte{byte(i)}, 64))
	}
	for i := range jsonlStrings {
		f.Add(append(make([]byte, 40), bytes.Repeat([]byte{byte(i), 3}, 16)...))
	}
	f.Add(bytes.Repeat([]byte{0xff}, 128))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := jsonlSource{b: data}
		rec, span, hdr, proc := src.values()
		checkJSONL(t, &rec, &span, hdr, proc)
	})
}
