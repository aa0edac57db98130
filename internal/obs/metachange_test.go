package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestGaugeFunc(t *testing.T) {
	reg := NewRegistry()
	accepts := reg.Counter("t_accepts_total", "", nil)
	rejects := reg.Counter("t_rejects_total", "", nil)
	reg.GaugeFunc("t_reject_ratio", "Computed at scrape time.", nil, func() float64 {
		total := accepts.Value() + rejects.Value()
		if total == 0 {
			return 0
		}
		return rejects.Value() / total
	})

	render := func() string {
		var sb strings.Builder
		if err := reg.WriteProm(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if page := render(); !strings.Contains(page, "t_reject_ratio 0\n") {
		t.Errorf("empty ratio sample missing:\n%s", page)
	}
	accepts.Inc()
	rejects.Inc()
	rejects.Inc()
	rejects.Inc()
	if page := render(); !strings.Contains(page, "t_reject_ratio 0.75\n") {
		t.Errorf("ratio not recomputed at scrape:\n%s", page)
	}
	if page := render(); !strings.Contains(page, "# TYPE t_reject_ratio gauge") {
		t.Errorf("TYPE line missing:\n%s", page)
	}
}

func TestGaugeFuncNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil GaugeFunc did not panic")
		}
	}()
	NewRegistry().GaugeFunc("t_bad", "", nil, nil)
}

// TestTraceRingMetaChangeReemitsHeader pins the sink-stream contract a
// feature-mode-changing model reload depends on: a SetMeta call that
// changes the meta emits a fresh header record, so every decision in the
// stream decodes against the most recent preceding header, while a SetMeta
// restating the current meta emits nothing.
func TestTraceRingMetaChangeReemitsHeader(t *testing.T) {
	r := NewTraceRing(16)
	var sink bytes.Buffer
	r.SetSink(&sink)

	r.SetMeta([]string{"a", "b"}, "modeA", 3)
	rec := testDecision(0)
	rec.Features = []float64{1, 2}
	r.EmitDecision(&rec)

	r.SetMeta([]string{"a", "b"}, "modeA", 3) // restated: no new header
	r.EmitDecision(&rec)

	r.SetMeta([]string{"x", "y", "z"}, "modeB", 5) // changed: fresh header
	rec2 := testDecision(1)
	rec2.Features = []float64{1, 2, 3}
	r.EmitDecision(&rec2)

	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	kinds, bodies := decodeImage(t, sink.Bytes())
	wantKinds := []byte{FTraceKindHeader, FTraceKindDecision, FTraceKindDecision,
		FTraceKindHeader, FTraceKindDecision}
	if !bytes.Equal(kinds, wantKinds) {
		t.Fatalf("stream kinds %v, want %v", kinds, wantKinds)
	}
	checkHeadersDescribeDecisions(t, kinds, bodies)

	// The live ring holds both headers too, in emission order.
	kinds, _ = decodeImage(t, r.Snapshot())
	headers := 0
	for _, k := range kinds {
		if k == FTraceKindHeader {
			headers++
		}
	}
	if headers != 2 {
		t.Errorf("ring snapshot holds %d headers, want 2", headers)
	}
}

// TestTraceRingSnapshotKeepsEvictedHeader is the wrapped case: once
// wraparound has evicted the header record, Snapshot still opens with the
// header its oldest record decodes against, and a mid-ring meta change still
// puts the new header before the first record it describes.
func TestTraceRingSnapshotKeepsEvictedHeader(t *testing.T) {
	r := NewTraceRing(4)
	r.SetMeta([]string{"a", "b"}, "modeA", 3)
	recA := testDecision(0)
	recA.Features = []float64{1, 2}
	for i := 0; i < r.Cap()+2; i++ {
		r.EmitDecision(&recA)
	}
	r.SetMeta([]string{"x", "y", "z"}, "modeB", 5)
	recB := testDecision(1)
	recB.Features = []float64{1, 2, 3}
	r.EmitDecision(&recB)

	// The ring holds A A H(B) B; H(A) was evicted long ago.
	kinds, bodies := decodeImage(t, r.Snapshot())
	want := []byte{FTraceKindHeader, FTraceKindDecision, FTraceKindDecision, FTraceKindHeader, FTraceKindDecision}
	if !bytes.Equal(kinds, want) {
		t.Fatalf("snapshot kinds %v, want %v", kinds, want)
	}
	first, err := DecodeFTraceHeader(bodies[0])
	if err != nil {
		t.Fatal(err)
	}
	if first.Mode != "modeA" || !reflect.DeepEqual(first.Features, []string{"a", "b"}) || first.MaxRejections != 3 {
		t.Fatalf("leading header %+v does not describe the oldest record", first)
	}
	checkHeadersDescribeDecisions(t, kinds, bodies)

	// Evict H(B) too: the retained header follows, and is not doubled while
	// the oldest live record is itself a header.
	for i := 0; i < r.Cap(); i++ {
		r.EmitDecision(&recB)
	}
	kinds, bodies = decodeImage(t, r.Snapshot())
	if len(kinds) != r.Cap()+1 || kinds[0] != FTraceKindHeader {
		t.Fatalf("snapshot kinds %v, want one leading header + %d decisions", kinds, r.Cap())
	}
	if h, err := DecodeFTraceHeader(bodies[0]); err != nil || h.Mode != "modeB" {
		t.Fatalf("leading header %+v (%v), want modeB", h, err)
	}
	checkHeadersDescribeDecisions(t, kinds, bodies)
}

// checkHeadersDescribeDecisions walks a record stream in order asserting
// every decision's feature count equals the most recent preceding header's.
func checkHeadersDescribeDecisions(t *testing.T, kinds []byte, bodies [][]byte) {
	t.Helper()
	curFeatures := -1
	for i, k := range kinds {
		switch k {
		case FTraceKindHeader:
			h, err := DecodeFTraceHeader(bodies[i])
			if err != nil {
				t.Fatal(err)
			}
			curFeatures = len(h.Features)
		case FTraceKindDecision:
			d, err := DecodeFTraceDecision(bodies[i])
			if err != nil {
				t.Fatal(err)
			}
			if len(d.Features) != curFeatures {
				t.Errorf("record %d carries %d features under a %d-feature header", i, len(d.Features), curFeatures)
			}
		}
	}
}
