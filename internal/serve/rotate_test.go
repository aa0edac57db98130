package serve

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"schedinspector/internal/core"
	"schedinspector/internal/explain"
	"schedinspector/internal/obs"
)

// TestRotatingWriter: opening moves the previous run's file to .1, and
// Rotate starts a new generation only once the current file holds maxBytes.
func TestRotatingWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.ftrace")
	if err := os.WriteFile(path, []byte("previous run"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := NewRotatingWriter(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	readFile := func(p string) string {
		t.Helper()
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if prev, cur := readFile(path+".1"), readFile(path); prev != "previous run" || cur != "" {
		t.Fatalf("after open: .1 %q, current %q; want the previous run moved aside", prev, cur)
	}

	rotate := func(want bool) {
		t.Helper()
		if got, err := w.Rotate(); got != want || err != nil {
			t.Fatalf("Rotate = %v, %v; want %v", got, err, want)
		}
	}
	w.Write([]byte("0123456789"))
	rotate(false) // 10 of 16 bytes
	w.Write([]byte("abcdefghij"))
	rotate(true)
	w.Write([]byte("x"))
	if prev, cur := readFile(path+".1"), readFile(path); prev != "0123456789abcdefghij" || cur != "x" {
		t.Fatalf("after rotation: .1 %q, current %q", prev, cur)
	}
}

// TestRotatingWriterOversizedWrite: a write never rotates, so one larger
// than the bound lands whole, and the next Rotate moves it whole.
func TestRotatingWriterOversizedWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.ftrace")
	w, err := NewRotatingWriter(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	big := []byte("this single segment exceeds the bound\n")
	if _, err := w.Write(big); err != nil {
		t.Fatal(err)
	}
	if rotated, err := w.Rotate(); !rotated || err != nil {
		t.Fatalf("Rotate = %v, %v", rotated, err)
	}
	if prev, err := os.ReadFile(path + ".1"); err != nil || !bytes.Equal(prev, big) {
		t.Errorf("oversized write split across rotation: %q (%v)", prev, err)
	}
}

func TestRotatingWriterUnbounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.ftrace")
	w, err := NewRotatingWriter(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 100; i++ {
		if _, err := w.Write([]byte("xxxxxxxxxx\n")); err != nil {
			t.Fatal(err)
		}
		if rotated, err := w.Rotate(); rotated || err != nil {
			t.Fatalf("maxBytes=0 rotated (%v, %v)", rotated, err)
		}
	}
	if _, err := os.Stat(path + ".1"); !os.IsNotExist(err) {
		t.Errorf("maxBytes=0 must never rotate, found %s.1", path)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != 100*11 {
		t.Errorf("file size %v (%v), want 1100", st.Size(), err)
	}
}

func TestRotatingWriterClosed(t *testing.T) {
	w, err := NewRotatingWriter(filepath.Join(t.TempDir(), "a.ftrace"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Error("write after Close should fail")
	}
	if err := w.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

// countingRotator counts the generations a RotatingWriter starts.
type countingRotator struct {
	*RotatingWriter
	rotations int
}

func (c *countingRotator) Rotate() (bool, error) {
	rotated, err := c.RotatingWriter.Rotate()
	if rotated {
		c.rotations++
	}
	return rotated, err
}

// TestFlightRotation streams a handler's flight ring through a
// RotatingWriter bound small enough to rotate after every frame, across a
// Swap that changes the feature mode. The two files left on disk must each
// decode alone, open with the header current at their first decision, and
// hold contiguous runs of Seq, the newer one continuing the older.
func TestFlightRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.ftrace")
	rw, err := NewRotatingWriter(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	sink := &countingRotator{RotatingWriter: rw}
	h := NewHandler(equivInspector(1, core.ManualFeatures))
	defer h.Close()
	h.ring.SetSink(sink)

	i := 0
	inspectUntil := func(rotations int) {
		t.Helper()
		for ; sink.rotations < rotations; i++ {
			if rec := postInspect(t, h, waveRequest(i)); rec.Code != http.StatusOK {
				t.Fatalf("inspect %d: status %d", i, rec.Code)
			}
		}
	}
	// Generation 3 opens in manual mode and switches to native inside; the
	// rotation into generation 4 must restate the native header.
	inspectUntil(2)
	for end := i + 10; i < end; i++ {
		postInspect(t, h, waveRequest(i))
	}
	h.Swap(equivInspector(2, core.NativeFeatures))
	inspectUntil(3)
	for end := i + 5; i < end; i++ {
		postInspect(t, h, waveRequest(i))
	}
	if err := h.ring.Flush(); err != nil {
		t.Fatal(err)
	}

	var seqs [2][]int
	for g, want := range []struct {
		file, mode string
	}{{path + ".1", core.ManualFeatures.String()}, {path, core.NativeFeatures.String()}} {
		img, err := os.ReadFile(want.file)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := explain.ReadFTrace(bytes.NewReader(img))
		if err != nil || len(tr.Records) == 0 {
			t.Fatalf("%s does not decode alone: %d records, %v", want.file, len(tr.Records), err)
		}
		var first *obs.ExplainHeader
		walkFTrace(t, img, func(kind byte, body []byte) {
			switch kind {
			case obs.FTraceKindHeader:
				if first == nil && len(seqs[g]) == 0 {
					hdr, err := obs.DecodeFTraceHeader(body)
					if err != nil {
						t.Fatal(err)
					}
					first = &hdr
				}
			case obs.FTraceKindDecision:
				if first == nil {
					t.Fatalf("%s: a decision precedes every header", want.file)
				}
				dec, err := obs.DecodeFTraceDecision(body)
				if err != nil {
					t.Fatal(err)
				}
				if len(seqs[g]) == 0 && len(dec.Features) != len(first.Features) {
					t.Fatalf("%s opens with a %d-feature header before a %d-feature decision",
						want.file, len(first.Features), len(dec.Features))
				}
				seqs[g] = append(seqs[g], dec.Seq)
			}
		})
		if first.Mode != want.mode {
			t.Errorf("%s opens with a %s header, want %s", want.file, first.Mode, want.mode)
		}
		for k := 1; k < len(seqs[g]); k++ {
			if seqs[g][k] != seqs[g][k-1]+1 {
				t.Fatalf("%s: Seq %d follows %d", want.file, seqs[g][k], seqs[g][k-1])
			}
		}
	}
	if prev, cur := seqs[0], seqs[1]; cur[0] != prev[len(prev)-1]+1 {
		t.Errorf("newer file starts at Seq %d, older ends at %d", cur[0], prev[len(prev)-1])
	}
}

// TestFlightRotationFailure: a rotation that cannot move the full file
// aside fails the sink for good; decisions keep serving, and the file
// written so far still decodes.
func TestFlightRotationFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.ftrace")
	w, err := NewRotatingWriter(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// A non-empty directory where the previous generation goes: the rename
	// fails, whoever runs the test.
	if err := os.MkdirAll(filepath.Join(path+".1", "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	h := testHandler(t)
	defer h.Close()
	h.ring.SetSink(w)

	const n = 600 // several frames
	for i := 0; i < n; i++ {
		if rec := postInspect(t, h, waveRequest(i)); rec.Code != http.StatusOK {
			t.Fatalf("inspect %d after the failed rotation: status %d", i, rec.Code)
		}
	}
	if err := h.ring.SinkErr(); err == nil || !strings.Contains(err.Error(), "rotating file") {
		t.Fatalf("SinkErr = %v, want the rotation's error", err)
	}
	if err := h.ring.Flush(); err == nil {
		t.Error("Flush after a failed rotation returned no error")
	}
	if v := metricValue(t, metricsPage(t, h), "schedinspector_ftrace_sink_errors_total", ""); v != 1 {
		t.Errorf("sink errors %v, want 1", v)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr, err := explain.ReadFTrace(bytes.NewReader(img)); err != nil || len(tr.Records) == 0 {
		t.Errorf("the generation written before the failure: %d records, %v", len(tr.Records), err)
	}
}
