package core

import (
	"bytes"
	"reflect"
	"testing"

	"schedinspector/internal/explain"
	"schedinspector/internal/metrics"
	"schedinspector/internal/obs"
	"schedinspector/internal/sched"
	"schedinspector/internal/workload"
)

// readFlight decodes a .ftrace byte form (a ring snapshot or a sink file).
// ReadFTrace order-normalizes the decision records by (Epoch, Traj, Seq):
// ring order of a multi-worker run is scheduler-dependent, the set is not.
func readFlight(t *testing.T, ring *obs.TraceRing, img []byte) *explain.Trace {
	t.Helper()
	if ring.Oversized() > 0 {
		t.Fatalf("ring dropped %d oversize records", ring.Oversized())
	}
	tr, err := explain.ReadFTrace(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func spanIDs(tr *explain.Trace) map[obs.SpanID]bool {
	ids := make(map[obs.SpanID]bool)
	for _, sp := range tr.Spans {
		ids[sp.ID] = true
	}
	return ids
}

// trainFlight runs the short reference training (the one trainStats runs)
// with ring attached and returns the decisions it should have recorded.
func trainFlight(t *testing.T, mode FeatureMode, workers int, ring *obs.TraceRing) (*Trainer, int) {
	t.Helper()
	trainer, err := NewTrainer(TrainConfig{
		Trace: workload.SDSCSP2Like(3000, 7), Policy: sched.SJF(), Metric: metrics.BSLD,
		FeatureMode: mode, Batch: 6, SeqLen: 64, Seed: 11, Workers: workers, Flight: ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := trainer.Train(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for _, st := range hist {
		steps += st.Steps
	}
	if steps == 0 {
		t.Fatal("training made no inspections")
	}
	return trainer, steps
}

// TestFlightRecorderWorkerEquivalence is the acceptance pin: with tracing
// enabled, workers=1 and workers=8 runs over the same seed produce the
// identical set of explain records (order-normalized) and the identical set
// of span IDs, read back from the ring's own snapshot.
func TestFlightRecorderWorkerEquivalence(t *testing.T) {
	run := func(workers int) *explain.Trace {
		ring := obs.NewTraceRing(1 << 13)
		_, steps := trainFlight(t, ManualFeatures, workers, ring)
		if ring.Dropped() > 0 {
			t.Fatalf("ring overflow invalidates the comparison; raise capacities")
		}
		tr := readFlight(t, ring, ring.Snapshot())
		if len(tr.Records) != steps {
			t.Fatalf("workers=%d: %d decision records for %d inspections", workers, len(tr.Records), steps)
		}
		return tr
	}
	seq, par := run(1), run(8)
	for i := range seq.Records {
		if !reflect.DeepEqual(seq.Records[i], par.Records[i]) {
			t.Fatalf("record %d differs between worker counts:\n  workers=1: %+v\n  workers=8: %+v",
				i, seq.Records[i], par.Records[i])
		}
	}
	if seqIDs, parIDs := spanIDs(seq), spanIDs(par); !reflect.DeepEqual(seqIDs, parIDs) {
		t.Fatalf("span ID sets differ: workers=1 has %d, workers=8 has %d", len(seqIDs), len(parIDs))
	}
}

// TestBinaryFlightWorkerEquivalence is the same pin on the streamed file,
// which is what train -flight writes: a ring far smaller than the run wraps
// many times over, yet the sink holds every record at either worker count.
// A decision is recorded once, as its explain record: spans only bracket
// epochs, evaluations and episodes.
func TestBinaryFlightWorkerEquivalence(t *testing.T) {
	run := func(workers int) *explain.Trace {
		var sink bytes.Buffer
		ring := obs.NewTraceRing(64)
		ring.SetSink(&sink)
		_, steps := trainFlight(t, ManualFeatures, workers, ring)
		if err := ring.Flush(); err != nil {
			t.Fatal(err)
		}
		if ring.Dropped() == 0 {
			t.Fatal("ring never wrapped; the case is not exercised")
		}
		tr := readFlight(t, ring, sink.Bytes())
		if len(tr.Records) != steps {
			t.Fatalf("workers=%d: %d decision records for %d inspections", workers, len(tr.Records), steps)
		}
		for _, sp := range tr.Spans {
			switch sp.Name {
			case "epoch", "eval", "episode":
			case "decision":
				t.Fatalf("workers=%d: a decision span; decisions are recorded once, as explain records", workers)
			default:
				t.Fatalf("workers=%d: span named %q, want epoch, eval or episode", workers, sp.Name)
			}
		}
		return tr
	}
	seq, par := run(1), run(8)
	if !reflect.DeepEqual(seq.Records, par.Records) {
		t.Fatalf("decision records differ between worker counts")
	}
	if seqIDs, parIDs := spanIDs(seq), spanIDs(par); !reflect.DeepEqual(seqIDs, parIDs) {
		t.Fatalf("span ID sets differ: workers=1 has %d, workers=8 has %d", len(seqIDs), len(parIDs))
	}
}

// TestFlightRecordsEveryFeatureMode pins what train -flight promises for
// each §3.3 feature mode on a ring of the default geometry: exactly one
// decision record per inspection and one header naming the mode's features.
// Native mode's 102-feature records and header outgrow the default 512-byte
// slots; before slots followed the records, every one of them was dropped.
func TestFlightRecordsEveryFeatureMode(t *testing.T) {
	for _, mode := range []FeatureMode{ManualFeatures, CompactedFeatures, NativeFeatures} {
		t.Run(mode.String(), func(t *testing.T) {
			var sink bytes.Buffer
			ring := obs.NewTraceRing(0)
			ring.SetSink(&sink)
			_, steps := trainFlight(t, mode, 2, ring)
			if err := ring.Flush(); err != nil {
				t.Fatal(err)
			}
			tr := readFlight(t, ring, sink.Bytes())
			var jsonl bytes.Buffer
			if err := explain.ConvertFTrace(bytes.NewReader(sink.Bytes()), &jsonl); err != nil {
				t.Fatal(err)
			}
			headers := bytes.Count(jsonl.Bytes(), []byte(`{"kind":"explain_header"`))
			if len(tr.Records) != steps || headers != 1 {
				t.Fatalf("%d decision records and %d headers for %d inspections, want %d and 1",
					len(tr.Records), headers, steps, steps)
			}
			if tr.Header == nil || tr.Header.Mode != mode.String() ||
				!reflect.DeepEqual(tr.Header.Features, mode.FeatureNames()) {
				t.Fatalf("header %+v does not name the %s features", tr.Header, mode)
			}
			for _, r := range tr.Records {
				if len(r.Features) != mode.Dim() {
					t.Fatalf("record carries %d features, want %d", len(r.Features), mode.Dim())
				}
			}
		})
	}
}

// TestEvaluateFlightEquivalence covers the evaluation path: same explain
// record set at any worker count, both stochastic and greedy.
func TestEvaluateFlightEquivalence(t *testing.T) {
	tr := workload.SDSCSP2Like(3000, 6)
	insp := newTestInspector(t, ManualFeatures)
	for _, greedy := range []bool{false, true} {
		run := func(workers int) []obs.ExplainRecord {
			var sink bytes.Buffer
			ring := obs.NewTraceRing(256)
			ring.SetSink(&sink)
			res, err := Evaluate(insp, EvalConfig{
				Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD,
				Sequences: 6, SeqLen: 64, Seed: 3, Workers: workers,
				Greedy: greedy, Flight: ring,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := ring.Flush(); err != nil {
				t.Fatal(err)
			}
			recs := readFlight(t, ring, sink.Bytes()).Records
			if len(recs) != res.Inspections {
				t.Fatalf("%d explain records for %d inspections", len(recs), res.Inspections)
			}
			return recs
		}
		seq, par := run(1), run(8)
		if len(seq) == 0 {
			t.Fatalf("greedy=%v: evaluation recorded no explain records", greedy)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("greedy=%v: explain records differ between worker counts", greedy)
		}
		for _, r := range seq {
			if r.Sampled == greedy {
				t.Fatalf("greedy=%v: record claims Sampled=%v", greedy, r.Sampled)
			}
			if len(r.Features) != ManualFeatures.Dim() || len(r.Logits) != 2 || len(r.Probs) != 2 {
				t.Fatalf("record shapes wrong: %+v", r)
			}
		}
	}
}

// TestFlightRecorderDoesNotPerturbTraining pins that attaching the flight
// recorder leaves the trained model bit-identical: recording reads the
// sampler's state but never draws from any RNG stream.
func TestFlightRecorderDoesNotPerturbTraining(t *testing.T) {
	_, plain := trainStats(t, workload.SDSCSP2Like(3000, 7), sched.SJF(), 4)
	ring := obs.NewTraceRing(0)
	trainer, _ := trainFlight(t, ManualFeatures, 4, ring)
	var buf bytes.Buffer
	if err := trainer.Inspector().Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), plain) {
		t.Fatal("flight recorder perturbed the trained model")
	}
	if _, recs := ring.LastDecisions(1); len(recs) == 0 {
		t.Fatal("flight recorder attached but recorded nothing")
	}
}

// TestReplayWholeMatchesInspections pins the §5 replay's flight record
// against the engine it runs on: one decision record per inspection of a
// single whole-trace Evaluate sequence, a reject record per rejection, and a
// header naming the mode's features, in every feature mode.
func TestReplayWholeMatchesInspections(t *testing.T) {
	tr := workload.SDSCSP2Like(1200, 9)
	for _, mode := range []FeatureMode{ManualFeatures, CompactedFeatures, NativeFeatures} {
		t.Run(mode.String(), func(t *testing.T) {
			insp := newTestInspector(t, mode)
			cfg := EvalConfig{Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD, Seed: 5}
			img, err := ReplayWhole(insp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Sequences, cfg.SeqLen = 1, tr.Len()
			res, err := Evaluate(insp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := readFlight(t, nil, img)
			rejects := 0
			for _, r := range got.Records {
				if r.Rejected {
					rejects++
				}
			}
			if res.Inspections == 0 || len(got.Records) != res.Inspections || rejects != res.Rejections {
				t.Fatalf("flight record has %d decisions and %d rejections, Evaluate %d and %d",
					len(got.Records), rejects, res.Inspections, res.Rejections)
			}
			if got.Header == nil || !reflect.DeepEqual(got.FeatureNames(), mode.FeatureNames()) {
				t.Fatalf("header %+v does not name the %s features", got.Header, mode)
			}
		})
	}
	if _, err := ReplayWhole(newTestInspector(t, ManualFeatures), EvalConfig{Policy: sched.SJF()}); err == nil {
		t.Error("missing trace accepted")
	}
}

// TestFeatureNamesAlignWithDim pins that every mode's label list matches
// its feature vector length — the explain header contract.
func TestFeatureNamesAlignWithDim(t *testing.T) {
	for _, m := range []FeatureMode{ManualFeatures, CompactedFeatures, NativeFeatures} {
		if got := len(m.FeatureNames()); got != m.Dim() {
			t.Errorf("%s: %d names for %d features", m, got, m.Dim())
		}
	}
}
