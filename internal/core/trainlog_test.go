package core

import (
	"encoding/json"
	"strings"
	"testing"

	"schedinspector/internal/metrics"
	"schedinspector/internal/sched"
	"schedinspector/internal/workload"
)

func sampleEpoch() EpochStats {
	return EpochStats{
		Epoch: 3, MeanReward: 0.25, RewardStd: 0.5, MeanImprovement: 1.5,
		MeanPctImprovement: 0.1, RejectionRatio: 0.2, PolicyLoss: -0.01,
		ValueLoss: 0.4, Entropy: 0.69, ApproxKL: 0.002, PolicyIters: 7,
		Steps: 1280, Seconds: 1.25,
	}
}

func TestCSVTrainLoggerRoundTrip(t *testing.T) {
	var buf strings.Builder
	l := NewCSVTrainLogger(&buf)
	want := sampleEpoch()
	l.LogEpoch(want)
	next := want
	next.Epoch = 4
	l.LogEpoch(next)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "epoch,mean_reward,") {
		t.Fatalf("header missing:\n%s", out)
	}
	if strings.Count(out, "epoch,") != 1 {
		t.Fatalf("header repeated:\n%s", out)
	}
	got, err := ReadEpochCSV(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d epochs", len(got))
	}
	if got[0] != want {
		t.Errorf("round trip:\n got %+v\nwant %+v", got[0], want)
	}
	if got[1].Epoch != 4 {
		t.Errorf("second epoch %d", got[1].Epoch)
	}
}

func TestReadEpochCSVReordered(t *testing.T) {
	in := "mean_reward,epoch,unknown_column\n0.5,7,999\n"
	got, err := ReadEpochCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Epoch != 7 || got[0].MeanReward != 0.5 {
		t.Errorf("reordered parse: %+v", got)
	}
	if _, err := ReadEpochCSV(strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Error("no error for CSV without epoch column")
	}
}

func TestJSONLTrainLogger(t *testing.T) {
	var buf strings.Builder
	NewJSONLTrainLogger(&buf).LogEpoch(sampleEpoch())
	var m map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range EpochColumns() {
		if _, ok := m[k]; !ok {
			t.Errorf("JSONL record missing %q: %v", k, m)
		}
	}
	if m["epoch"] != 3.0 || m["entropy"] != 0.69 {
		t.Errorf("JSONL values: %v", m)
	}
}

// TestTrainerEmitsTelemetry runs a tiny real training loop and checks the
// logger hook fires with populated PPO fields — the acceptance path for
// "a training run writes per-epoch telemetry with loss/entropy/KL/reward".
func TestTrainerEmitsTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test skipped in -short mode")
	}
	var buf strings.Builder
	tr := workload.SDSCSP2Like(3000, 5)
	trainer, err := NewTrainer(TrainConfig{
		Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD,
		Batch: 4, SeqLen: 64, Seed: 1,
		Logger: NewCSVTrainLogger(&buf),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.Train(2, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEpochCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("logged %d epochs, want 2", len(got))
	}
	for _, st := range got {
		if st.Entropy <= 0 || st.Steps <= 0 || st.PolicyIters <= 0 || st.Seconds <= 0 {
			t.Errorf("epoch %d telemetry not populated: %+v", st.Epoch, st)
		}
	}
	if got[0].Epoch != 1 || got[1].Epoch != 2 {
		t.Errorf("epoch numbering %d,%d", got[0].Epoch, got[1].Epoch)
	}
}
