package explain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"schedinspector/internal/ckpt"
	"schedinspector/internal/obs"
)

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func fixtureSpans() []obs.Span {
	return []obs.Span{
		{ID: 11, Parent: 3, Name: "decision", WallStart: 1000, WallEnd: 1050,
			SimStart: 10, SimEnd: 10,
			Attrs: []obs.Attr{{Key: "job", Num: 7}, {Key: "verdict", Str: "reject"}}},
		{ID: 12, Parent: 3, Name: "episode", WallStart: 900, WallEnd: 2000,
			SimStart: 0, SimEnd: 500, Attrs: []obs.Attr{{Key: "slot", Num: 2}}},
	}
}

func fixtureDecisions() []obs.ExplainRecord {
	return []obs.ExplainRecord{
		{Epoch: 0, Traj: 0, Seq: 0, Time: 100, JobID: 7, Wait: 10, Procs: 4, Est: 600,
			Rejections: 0, MaxRejections: 72, QueueLen: 2, FreeProcs: 32, TotalProcs: 64,
			Utilization: 0.5, Action: 1, Sampled: true, Rejected: true,
			Features: []float64{0.1, 0.2}, Logits: []float64{0.5, -0.5}, Probs: []float64{0.73, 0.27}},
		{Epoch: 0, Traj: 1, Seq: 0, Time: 150, JobID: 9, Wait: 0.5, Procs: 8, Est: 120,
			Rejections: 1, MaxRejections: 72, QueueLen: 1, FreeProcs: 8, TotalProcs: 64,
			Utilization: 0.875, Action: 0, Sampled: false, Rejected: false,
			Features: []float64{0.4, 0.8}, Logits: []float64{-0.3, 0.3}, Probs: []float64{0.35, 0.65}},
		// Nil slices: the wire forms must round-trip "absent" faithfully.
		{Epoch: 1, Traj: 0, Seq: 2, Time: 300, JobID: 13, MaxRejections: 72,
			TotalProcs: 64, Action: 1, Rejected: true},
	}
}

var fixtureProc = obs.ProcStats{Wall: 1700000000, Goroutines: 12,
	HeapAlloc: 5 << 20, HeapSys: 32 << 20, NumGC: 4, PauseTotal: 123456}

// ftraceFixture returns one fixed sequence of trace emissions — meta, two
// spans, three decisions and (optionally) one proc sample — as a flushed
// .ftrace stream.
func ftraceFixture(t *testing.T, procs bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	r := obs.NewTraceRing(64)
	r.SetSink(&buf)
	r.SetMeta([]string{"fa", "fb"}, "manual", 72)
	spans, decs := fixtureSpans(), fixtureDecisions()
	r.EmitSpan(&spans[0])
	r.EmitDecision(&decs[0])
	r.EmitDecision(&decs[1])
	if procs {
		r.EmitProc(fixtureProc)
	}
	r.EmitSpan(&spans[1])
	r.EmitDecision(&decs[2])
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadFTraceRoundTrip(t *testing.T) {
	tr, err := ReadFTrace(bytes.NewReader(ftraceFixture(t, true)))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header == nil || tr.Header.Mode != "manual" || tr.Header.MaxRejections != 72 ||
		!reflect.DeepEqual(tr.Header.Features, []string{"fa", "fb"}) {
		t.Fatalf("header %+v", tr.Header)
	}
	if !reflect.DeepEqual(tr.Spans, fixtureSpans()) {
		t.Fatalf("spans:\n got %+v\nwant %+v", tr.Spans, fixtureSpans())
	}
	// Records come back sorted by (Epoch, Traj, Seq); the fixture already is.
	if !reflect.DeepEqual(tr.Records, fixtureDecisions()) {
		t.Fatalf("records:\n got %+v\nwant %+v", tr.Records, fixtureDecisions())
	}
	if len(tr.Procs) != 1 || tr.Procs[0] != fixtureProc {
		t.Fatalf("procs %+v", tr.Procs)
	}
}

// goldenJSONL is what commit 3b40047's live JSONL sinks (SpanTracer and
// ExplainRecorder sharing one buffer, since deleted) wrote for the records
// goldenFTrace emits; the proc line, which had no live sink, is that commit's
// AppendProcJSONL. Generated once there and frozen: the JSONL rendering is a
// published format, whatever produces it.
const goldenJSONL = `{"kind":"explain_header","mode":"manual","features":["wait","procs"],"max_rejections":72}
{"kind":"span","id":11,"parent":3,"name":"decision","wall0":1000,"wall1":1050,"t0":10.5,"t1":10.5,"attrs":[{"k":"action","s":"reject"},{"k":"job","v":7},{"k":"free","v":0.30000000000000004}]}
{"kind":"decision","epoch":1,"traj":2,"seq":3,"t":100.25,"job":7,"wait":0.30000000000000004,"procs":4,"est":600,"rejections":1,"max_rejections":72,"queue":2,"free":32,"total":64,"util":0.5,"features":[-0,5e-324],"logits":[0.30000000000000004,-1.5],"probs":[0.8581489350995122,0.14185106490048782],"action":1,"sampled":true,"rejected":true}
{"kind":"proc","wall":1700000000,"goroutines":12,"heap_alloc":5242880,"heap_sys":33554432,"num_gc":4,"gc_pause_total_ns":123456}
`

// goldenFTrace records goldenJSONL's four records: a header, a span with
// string and numeric attributes, a decision carrying -0, the smallest
// denormal and a float that needs all 17 digits, and a proc sample.
func goldenFTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	r := obs.NewTraceRing(8)
	r.SetSink(&buf)
	r.SetMeta([]string{"wait", "procs"}, "manual", 72)
	r.EmitSpan(&obs.Span{ID: 11, Parent: 3, Name: "decision", WallStart: 1000, WallEnd: 1050,
		SimStart: 10.5, SimEnd: 10.5, Attrs: []obs.Attr{
			{Key: "action", Str: "reject"}, {Key: "job", Num: 7}, {Key: "free", Num: 0.30000000000000004}}})
	r.EmitDecision(&obs.ExplainRecord{Epoch: 1, Traj: 2, Seq: 3, Time: 100.25, JobID: 7,
		Wait: 0.30000000000000004, Procs: 4, Est: 600, Rejections: 1, MaxRejections: 72,
		QueueLen: 2, FreeProcs: 32, TotalProcs: 64, Utilization: 0.5,
		Action: 1, Sampled: true, Rejected: true,
		Features: []float64{math.Copysign(0, -1), 5e-324},
		Logits:   []float64{0.30000000000000004, -1.5},
		Probs:    []float64{0.8581489350995122, 0.14185106490048782}})
	r.EmitProc(obs.ProcStats{Wall: 1700000000, Goroutines: 12,
		HeapAlloc: 5 << 20, HeapSys: 32 << 20, NumGC: 4, PauseTotal: 123456})
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConvertFTraceByteIdentity is the golden pin of the JSONL rendering:
// converting a .ftrace trace yields byte-for-byte the frozen JSONL, so every
// downstream JSONL consumer keeps working whatever happens to the recorder.
func TestConvertFTraceByteIdentity(t *testing.T) {
	var converted bytes.Buffer
	if err := ConvertFTrace(bytes.NewReader(goldenFTrace(t)), &converted); err != nil {
		t.Fatal(err)
	}
	if converted.String() != goldenJSONL {
		t.Fatalf("converted JSONL differs from the golden:\n--- converted ---\n%s\n--- golden ---\n%s",
			converted.String(), goldenJSONL)
	}
}

// TestConvertThenReadMatchesReadFTrace pins that the two ingestion paths
// agree on everything: reading the JSONL rendering of a trace gives exactly
// the Trace reading the binary gives — header, spans, order-normalized
// records, proc samples — including the floats JSON is most likely to bend.
func TestConvertThenReadMatchesReadFTrace(t *testing.T) {
	for name, img := range map[string][]byte{"golden": goldenFTrace(t), "fixture": ftraceFixture(t, true)} {
		want, err := ReadFTrace(bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		var converted bytes.Buffer
		if err := ConvertFTrace(bytes.NewReader(img), &converted); err != nil {
			t.Fatal(err)
		}
		got, err := ReadTrace(bytes.NewReader(converted.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: JSONL read differs from binary read:\n got %+v\nwant %+v", name, got, want)
		}
		if len(want.Records) == 0 || len(want.Spans) == 0 || len(want.Procs) == 0 || want.Header == nil {
			t.Fatalf("%s: trace shape wrong: %+v", name, want)
		}
	}
}

// TestConvertFTraceProcLines pins the proc-sample wire form in the converted
// output: a {"kind":"proc",...} line the JSONL reader files under Procs.
func TestConvertFTraceProcLines(t *testing.T) {
	var converted bytes.Buffer
	if err := ConvertFTrace(bytes.NewReader(ftraceFixture(t, true)), &converted); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(converted.String(), `{"kind":"proc",`) {
		t.Fatalf("no proc line in converted output:\n%s", converted.String())
	}
	tr, err := ReadTrace(bytes.NewReader(converted.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Procs) != 1 || tr.Procs[0] != fixtureProc {
		t.Fatalf("proc sample did not survive conversion: %+v", tr.Procs)
	}
}

// TestReadFTraceTornTail pins crash resilience: truncating mid-frame
// yields the records of every complete frame plus an error.
func TestReadFTraceTornTail(t *testing.T) {
	full := ftraceFixture(t, false)
	for _, cut := range []int{len(full) - 1, len(full) - 7, 15} {
		tr, err := ReadFTrace(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("cut at %d: truncation not reported", cut)
		}
		if tr == nil {
			t.Fatalf("cut at %d: no partial trace returned", cut)
		}
	}
	// Too short for even the frame header.
	if _, err := ReadFTrace(bytes.NewReader(full[:4])); err == nil {
		t.Fatal("header truncation not reported")
	}
	// Not an ftrace stream at all.
	if _, err := ReadFTrace(strings.NewReader(`{"kind":"span"}`)); err == nil {
		t.Fatal("JSONL input accepted as ftrace")
	}
}

// lyingFrame is a 24-byte .ftrace frame header declaring
// obs.MaxFTraceSegment payload bytes, followed by only 16 of them.
func lyingFrame() []byte {
	img := sealFTrace(make([]byte, 16))
	binary.BigEndian.PutUint64(img[12:20], obs.MaxFTraceSegment)
	return img
}

// TestReadFTraceLengthNotBelieved pins the hostile path: a frame that
// declares 64 MiB and delivers 16 bytes is a truncation error, and neither
// reader allocates anywhere near the declared length.
func TestReadFTraceLengthNotBelieved(t *testing.T) {
	img := lyingFrame()
	for name, read := range map[string]func() error{
		"ReadFTrace":    func() error { _, err := ReadFTrace(bytes.NewReader(img)); return err },
		"ConvertFTrace": func() error { return ConvertFTrace(bytes.NewReader(img), io.Discard) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := read()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("%s: err=%v, want a corrupt-frame error", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("%s: a %d-byte image declaring %d payload bytes allocated %d bytes, want < 1 MiB",
				name, len(img), obs.MaxFTraceSegment, alloc)
		}
	}
}

// TestReadFTraceForeignVersion: a frame of another version (a model file,
// a version 3 trace) is a *VersionError naming both versions.
func TestReadFTraceForeignVersion(t *testing.T) {
	img := make([]byte, ckpt.FrameHeaderSize)
	ckpt.SealFrame(img, obs.FTraceVersion+1)
	_, err := ReadFTrace(bytes.NewReader(img))
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Version != obs.FTraceVersion+1 {
		t.Fatalf("err=%v, want a *VersionError for version %d", err, obs.FTraceVersion+1)
	}
	if want := fmt.Sprintf("version %d, want ftrace version %d", obs.FTraceVersion+1, obs.FTraceVersion); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name both versions", err)
	}
}

// TestReadTraceFileRefusesV1 pins the message for a file in the retired
// version 1 container: it names the format instead of failing as JSON.
func TestReadTraceFileRefusesV1(t *testing.T) {
	path := t.TempDir() + "/old.ftrace"
	if err := writeFile(path, []byte("SCHDFTR\x01\x01\x00\x00\x00")); err != nil {
		t.Fatal(err)
	}
	_, err := ReadTraceFile(path)
	if err == nil || !strings.Contains(err.Error(), "version 1 flight trace") ||
		!strings.Contains(err.Error(), "no longer reads") {
		t.Fatalf("v1 file: err=%v, want a version 1 refusal", err)
	}
}

func TestReadFTraceCRCMismatch(t *testing.T) {
	full := ftraceFixture(t, false)
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)-3] ^= 0xFF // flip a payload byte after the CRC was set
	if _, err := ReadFTrace(bytes.NewReader(corrupt)); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corruption not caught by CRC: %v", err)
	}
	var w bytes.Buffer
	if err := ConvertFTrace(bytes.NewReader(corrupt), &w); err == nil {
		t.Fatal("ConvertFTrace accepted a corrupt segment")
	}
}

// TestReadFTraceMultiSegment pins that frame boundaries are invisible to
// the reader: a stream flushed every record decodes identically to one
// flushed once.
func TestReadFTraceMultiSegment(t *testing.T) {
	var buf bytes.Buffer
	r := obs.NewTraceRing(64)
	r.SetSink(&buf)
	r.SetMeta([]string{"fa", "fb"}, "manual", 72)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, d := range fixtureDecisions() {
		d := d
		r.EmitDecision(&d)
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := ReadFTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Records, fixtureDecisions()) {
		t.Fatalf("per-record segments decoded differently:\n%+v", tr.Records)
	}
}

// TestReadTraceFileSniffsFTrace pins the explain front door: ReadTraceFile
// dispatches on the leading magic, so .ftrace and JSONL files are equally
// valid inputs to every query.
func TestReadTraceFileSniffsFTrace(t *testing.T) {
	dir := t.TempDir()
	bin := dir + "/flight.ftrace"
	if err := writeFile(bin, ftraceFixture(t, false)); err != nil {
		t.Fatal(err)
	}
	trBin, err := ReadTraceFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	var jsonl bytes.Buffer
	if err := ConvertFTrace(bytes.NewReader(ftraceFixture(t, false)), &jsonl); err != nil {
		t.Fatal(err)
	}
	txt := dir + "/flight.jsonl"
	if err := writeFile(txt, jsonl.Bytes()); err != nil {
		t.Fatal(err)
	}
	trTxt, err := ReadTraceFile(txt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trBin.Records, trTxt.Records) || !reflect.DeepEqual(trBin.Spans, trTxt.Spans) {
		t.Fatal("sniffed binary and JSONL reads disagree")
	}
	if !reflect.DeepEqual(trBin.FeatureNames(), []string{"fa", "fb"}) {
		t.Fatalf("feature names %v", trBin.FeatureNames())
	}
}

// TestFTraceQueriesWork runs the analysis layer over a binary-sourced trace:
// the tentpole's point is that the cheap format answers the same questions.
func TestFTraceQueriesWork(t *testing.T) {
	tr, err := ReadFTrace(bytes.NewReader(ftraceFixture(t, false)))
	if err != nil {
		t.Fatal(err)
	}
	if tl := tr.JobTimeline(7); len(tl) != 1 || !tl[0].Rejected {
		t.Fatalf("timeline %+v", tl)
	}
	stats, acc, rej := tr.FeatureStats()
	if len(stats) != 2 || acc != 1 || rej != 1 {
		t.Fatalf("feature stats %d/%d over %d features", acc, rej, len(stats))
	}
	if top := tr.TopRejected(5); len(top) == 0 {
		t.Fatal("no top-rejected rows")
	}
}
