package explain

import (
	"bytes"
	"io"
	"testing"

	"schedinspector/internal/ckpt"
	"schedinspector/internal/obs"
)

// FuzzReadFTrace throws arbitrary bytes at the binary flight-trace reader:
// it must never panic or over-allocate, and whatever it accepts must also
// convert to JSONL cleanly (the decoded structs are by definition valid
// records). Seeds cover the empty input, a bare frame magic, an empty
// frame, a frame of another version, a frame header whose length outruns
// its bytes, a valid multi-record stream, its truncations and a
// CRC-corrupted copy. Run with
// `go test -fuzz FuzzReadFTrace ./internal/explain` (the CI fuzz-smoke job
// does); the seeds run in the normal test suite.
func FuzzReadFTrace(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("SCHDCKP\x01"))
	f.Add(obs.NewTraceRing(1).Snapshot())
	wrong := make([]byte, ckpt.FrameHeaderSize)
	ckpt.SealFrame(wrong, obs.FTraceVersion-1) // wrong frame version
	f.Add(wrong)
	f.Add(lyingFrame())
	var buf bytes.Buffer
	r := obs.NewTraceRing(16)
	r.SetSink(&buf)
	r.SetMeta([]string{"fa", "fb"}, "manual", 72)
	sp := obs.Span{ID: 5, Parent: 1, Name: "decision", WallStart: 10, WallEnd: 20,
		Attrs: []obs.Attr{{Key: "job", Num: 3}}}
	r.EmitSpan(&sp)
	dec := obs.ExplainRecord{Traj: 1, Seq: 2, Time: 50, JobID: 9, MaxRejections: 72,
		Features: []float64{1, 2}, Logits: []float64{0.5, -0.5}, Probs: []float64{0.7, 0.3},
		Sampled: true, Rejected: true}
	r.EmitDecision(&dec)
	r.EmitProc(obs.ProcStats{Wall: 1, Goroutines: 2, HeapAlloc: 3, HeapSys: 4, NumGC: 5, PauseTotal: 6})
	if err := r.Flush(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:14])
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0x55
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadFTrace(bytes.NewReader(data))
		if tr == nil {
			t.Fatal("ReadFTrace returned a nil trace")
		}
		if err != nil {
			return
		}
		// A cleanly decoded stream must convert without error.
		if cerr := ConvertFTrace(bytes.NewReader(data), io.Discard); cerr != nil {
			t.Fatalf("ReadFTrace accepted what ConvertFTrace rejects: %v", cerr)
		}
	})
}
