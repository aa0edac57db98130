package explain

import (
	"testing"

	"schedinspector/internal/obs"
)

func tailFixtureRing(n int) *obs.TraceRing {
	r := obs.NewTraceRing(256)
	r.SetMeta([]string{"fa", "fb"}, "manual", 5)
	for i := 0; i < n; i++ {
		r.EmitDecision(&obs.ExplainRecord{
			Seq: i, Time: float64(i), JobID: i + 1,
			Procs: 4, Est: 100, QueueLen: 3, FreeProcs: 8, TotalProcs: 16,
			Features: []float64{0.1, 0.2}, Logits: []float64{1, -1}, Probs: []float64{0.7, 0.3},
		})
	}
	return r
}

func TestTailDecisions(t *testing.T) {
	r := tailFixtureRing(10)
	recs, newest, err := TailDecisions(r.Snapshot(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 || newest != 9 {
		t.Fatalf("got %d records, newest %d; want 10, 9", len(recs), newest)
	}
	for i, rec := range recs {
		if rec.Seq != i {
			t.Fatalf("record %d has Seq %d, want ascending order", i, rec.Seq)
		}
	}

	// A second tail from the same image must dedupe everything.
	recs, newest, err = TailDecisions(r.Snapshot(), newest)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || newest != 9 {
		t.Fatalf("dedupe tail: got %d records, newest %d; want 0, 9", len(recs), newest)
	}

	// New decisions after the cursor are picked up.
	r.EmitDecision(&obs.ExplainRecord{Seq: 10, JobID: 11, Procs: 1, Est: 1,
		Features: []float64{0, 0}, Logits: []float64{0, 0}, Probs: []float64{0.5, 0.5}})
	recs, newest, err = TailDecisions(r.Snapshot(), newest)
	if err != nil || len(recs) != 1 || recs[0].Seq != 10 || newest != 10 {
		t.Fatalf("incremental tail: recs=%d newest=%d err=%v", len(recs), newest, err)
	}
}

func TestTailDecisionsEmptyAndCorrupt(t *testing.T) {
	empty := obs.NewTraceRing(16)
	recs, newest, err := TailDecisions(empty.Snapshot(), 41)
	if err != nil || len(recs) != 0 || newest != 41 {
		t.Fatalf("empty ring: recs=%d newest=%d err=%v", len(recs), newest, err)
	}

	// A truncated image must fail loudly but still return the decoded
	// prefix: the online loop counts the corruption and keeps the records.
	img := tailFixtureRing(10).Snapshot()
	recs, _, err = TailDecisions(img[:len(img)-3], -1)
	if err == nil {
		t.Fatal("want error for truncated image")
	}
	if len(recs) != 0 {
		// The whole payload lives in one CRC-checked frame, so a torn
		// tail invalidates that frame; tolerate either an empty or
		// partial prefix, but records that do come back must be ordered.
		for i := 1; i < len(recs); i++ {
			if recs[i].Seq <= recs[i-1].Seq {
				t.Fatalf("corrupt-prefix records out of order at %d", i)
			}
		}
	}

	// Garbage that is not an .ftrace image at all: error, no records.
	recs, newest, err = TailDecisions([]byte("not a trace"), 7)
	if err == nil {
		t.Fatal("want error for garbage image")
	}
	if len(recs) != 0 || newest != 7 {
		t.Fatalf("garbage image: recs=%d newest=%d", len(recs), newest)
	}
}
