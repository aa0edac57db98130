package core

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"

	"schedinspector/internal/metrics"
	"schedinspector/internal/obs"
	"schedinspector/internal/sched"
	"schedinspector/internal/workload"
)

// TestTrainerEmitsTelemetry: the epoch span is the run's per-epoch
// telemetry. A two-epoch run with a Flight ring writes one epoch span per
// epoch whose attributes decode, through EpochStatsFromSpans, to the
// EpochStats Train returned bit for bit, Seconds included; and at Workers 1
// and 4 every attribute but seconds is identical.
func TestTrainerEmitsTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test skipped in -short mode")
	}
	run := func(workers int) []obs.Span {
		var sink bytes.Buffer
		ring := obs.NewTraceRing(0)
		ring.SetSink(&sink)
		trainer, err := NewTrainer(TrainConfig{
			Trace: workload.SDSCSP2Like(3000, 5), Policy: sched.SJF(), Metric: metrics.BSLD,
			Batch: 4, SeqLen: 64, Seed: 1, Workers: workers, Flight: ring,
		})
		if err != nil {
			t.Fatal(err)
		}
		hist, err := trainer.Train(2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ring.Flush(); err != nil {
			t.Fatal(err)
		}
		var spans []obs.Span
		for _, sp := range readFlight(t, ring, sink.Bytes()).Spans {
			if sp.Name == "epoch" {
				spans = append(spans, sp)
			}
		}
		got := EpochStatsFromSpans(spans)
		if len(got) != 2 || len(hist) != 2 {
			t.Fatalf("workers=%d: %d epoch spans for %d epochs, want 2", workers, len(got), len(hist))
		}
		for i := range hist {
			if !sameBits(got[i], hist[i]) {
				t.Errorf("workers=%d epoch %d: span decodes to\n %+v\nTrain returned\n %+v", workers, i+1, got[i], hist[i])
			}
			if st := got[i]; st.Entropy <= 0 || st.Steps <= 0 || st.PolicyIters <= 0 || st.Seconds <= 0 {
				t.Errorf("workers=%d epoch %d telemetry not populated: %+v", workers, st.Epoch, st)
			}
		}
		if got[0].Epoch != 1 || got[1].Epoch != 2 {
			t.Errorf("workers=%d: epoch numbering %d,%d", workers, got[0].Epoch, got[1].Epoch)
		}
		return spans
	}
	seq, par := run(1), run(4)
	keys := []string{"epoch", "steps", "reject_ratio", "mean_reward", "reward_std", "mean_improvement",
		"mean_pct_improvement", "policy_loss", "value_loss", "entropy", "approx_kl", "policy_iters", "seconds"}
	for i := range seq {
		var got []string
		for _, a := range seq[i].Attrs {
			got = append(got, a.Key)
		}
		if !slices.Equal(got, keys) {
			t.Fatalf("epoch span keys %q, want %q", got, keys)
		}
		for k, a := range seq[i].Attrs {
			if b := par[i].Attrs[k]; a.Key != "seconds" && a != b {
				t.Errorf("epoch %d attribute %s: %v at workers=1, %v at workers=4", i+1, a.Key, a.Num, b.Num)
			}
		}
	}
}

// sameBits reports whether every field of a and b holds the same bits.
func sameBits(a, b EpochStats) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := range va.NumField() {
		fa, fb := va.Field(i), vb.Field(i)
		switch fa.Kind() {
		case reflect.Float64:
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		default:
			if fa.Int() != fb.Int() {
				return false
			}
		}
	}
	return true
}
