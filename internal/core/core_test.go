package core

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"testing"

	"schedinspector/internal/ckpt"
	"schedinspector/internal/metrics"
	"schedinspector/internal/rl"
	"schedinspector/internal/sched"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

func TestRewardKinds(t *testing.T) {
	orig := metrics.Summary{AvgBSLD: 100}
	better := metrics.Summary{AvgBSLD: 60}
	worse := metrics.Summary{AvgBSLD: 150}

	if got := Reward(PercentageReward, metrics.BSLD, orig, better); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("percentage = %v, want 0.4", got)
	}
	if got := Reward(NativeReward, metrics.BSLD, orig, better); got != 40 {
		t.Errorf("native = %v, want 40", got)
	}
	if got := Reward(WinLossReward, metrics.BSLD, orig, better); got != 1 {
		t.Errorf("winloss = %v, want 1", got)
	}
	if got := Reward(WinLossReward, metrics.BSLD, orig, worse); got != -1 {
		t.Errorf("winloss worse = %v, want -1", got)
	}
	if got := Reward(WinLossReward, metrics.BSLD, orig, orig); got != 0 {
		t.Errorf("winloss tie = %v, want 0", got)
	}
	// util is maximized: higher util must be positive reward.
	uo := metrics.Summary{Util: 0.5}
	ui := metrics.Summary{Util: 0.6}
	for _, k := range []RewardKind{PercentageReward, NativeReward, WinLossReward} {
		if got := Reward(k, metrics.Util, uo, ui); got <= 0 {
			t.Errorf("%v util reward = %v, want positive", k, got)
		}
	}
}

func TestRewardKindParse(t *testing.T) {
	for _, k := range []RewardKind{PercentageReward, NativeReward, WinLossReward} {
		got, err := ParseRewardKind(k.String())
		if err != nil || got != k {
			t.Errorf("round trip %v: %v %v", k, got, err)
		}
	}
	if _, err := ParseRewardKind("zzz"); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestClampReward(t *testing.T) {
	if clampReward(math.NaN()) != 0 {
		t.Error("NaN not clamped to 0")
	}
	if clampReward(1e9) != 1e6 || clampReward(-1e9) != -1e6 {
		t.Error("extremes not clamped")
	}
	if clampReward(0.5) != 0.5 {
		t.Error("normal value altered")
	}
}

func newTestInspector(t *testing.T, mode FeatureMode) *Inspector {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	return NewInspector(rng, mode, testNormalizer(metrics.BSLD))
}

func TestInspectorGreedySamplingConsistency(t *testing.T) {
	in := newTestInspector(t, ManualFeatures)
	s := sampleState()
	greedy := in.Greedy()
	want := greedy(s)
	for i := 0; i < 5; i++ {
		if greedy(s) != want {
			t.Fatal("greedy decision not deterministic")
		}
	}
	p := in.RejectProb(s)
	if p < 0 || p > 1 {
		t.Fatalf("reject prob %v", p)
	}
	if want != (p > 0.5) {
		t.Errorf("greedy=%v inconsistent with reject prob %v", want, p)
	}
}

func TestInspectorSamplingRecordsSteps(t *testing.T) {
	in := newTestInspector(t, ManualFeatures)
	s := sampleState()
	var steps []rl.Step
	rec := in.Sampling(&steps)
	for i := 0; i < 10; i++ {
		rec(s)
	}
	if len(steps) != 10 {
		t.Fatalf("recorded %d steps", len(steps))
	}
	for _, st := range steps {
		if len(st.Obs) != ManualFeatures.Dim() {
			t.Fatalf("obs dim %d", len(st.Obs))
		}
		if st.Action != 0 && st.Action != ActionReject {
			t.Fatalf("bad action %d", st.Action)
		}
		if st.LogP > 0 {
			t.Fatalf("positive logp %v", st.LogP)
		}
	}
	// Observations must be independent copies.
	if &steps[0].Obs[0] == &steps[1].Obs[0] {
		t.Error("recorded observations alias each other")
	}
}

func TestInspectorSaveLoad(t *testing.T) {
	in := newTestInspector(t, ManualFeatures)
	var buf bytes.Buffer
	if err := in.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadInspector(&buf, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	s := sampleState()
	if got.Greedy()(s) != in.Greedy()(s) {
		t.Error("loaded inspector decides differently")
	}
	if math.Abs(got.RejectProb(s)-in.RejectProb(s)) > 1e-12 {
		t.Error("loaded inspector probabilities differ")
	}
	if got.Mode != in.Mode || got.Norm != in.Norm {
		t.Error("mode/norm not preserved")
	}
	if _, err := LoadInspector(bytes.NewReader([]byte("garbage")), nil); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("garbage: err=%v, want ckpt.ErrCorrupt", err)
	}
}

// TestInspectorSaveLoadFile: a model file is a ckpt container holding a
// checkpoint with zero epoch and seed and no optimizer state, written
// atomically, and byte-equal to what Save streams.
func TestInspectorSaveLoadFile(t *testing.T) {
	in := newTestInspector(t, CompactedFeatures)
	path := t.TempDir() + "/model.ckpt"
	if err := in.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadServable(path, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode != CompactedFeatures {
		t.Error("mode lost")
	}
	c, err := LoadTrainerCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Epoch != 0 || c.Seed != 0 || c.Opt.Policy.T != 0 || len(c.Opt.Policy.MW) != 0 || len(c.Opt.Value.VB) != 0 {
		t.Errorf("model file carries training state: epoch %d seed %d opt %+v", c.Epoch, c.Seed, c.Opt)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := in.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, buf.Bytes()) {
		t.Error("SaveFile and Save wrote different bytes")
	}
	if _, err := LoadServable(path+".nope", nil); err == nil {
		t.Error("missing file accepted")
	}
}

func TestWithNormalizer(t *testing.T) {
	in := newTestInspector(t, ManualFeatures)
	n2 := testNormalizer(metrics.Wait)
	n2.MaxProcs = 999
	re := in.WithNormalizer(n2)
	if re.Agent != in.Agent {
		t.Error("WithNormalizer must share the agent")
	}
	if re.Norm.MaxProcs != 999 || in.Norm.MaxProcs == 999 {
		t.Error("normalizer not rebound")
	}
}

func TestNewTrainerValidation(t *testing.T) {
	tr := workload.SDSCSP2Like(2000, 1)
	if _, err := NewTrainer(TrainConfig{Policy: sched.SJF()}); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := NewTrainer(TrainConfig{Trace: tr}); err == nil {
		t.Error("nil policy accepted")
	}
	// training region smaller than one sequence
	small := workload.SDSCSP2Like(300, 1)
	if _, err := NewTrainer(TrainConfig{Trace: small, Policy: sched.SJF(), SeqLen: 128, TrainFrac: 0.2}); err == nil {
		t.Error("too-small training region accepted")
	}
	tr2 := &workload.Trace{Name: "bad", MaxProcs: 4, Jobs: []workload.Job{{ID: 1, Submit: 0, Run: 1, Est: 1, Procs: 99}}}
	if _, err := NewTrainer(TrainConfig{Trace: tr2, Policy: sched.SJF()}); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestTrainerEpochMechanics(t *testing.T) {
	tr := workload.SDSCSP2Like(4000, 5)
	trainer, err := NewTrainer(TrainConfig{
		Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD,
		Batch: 4, SeqLen: 64, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if trainer.Config().Batch != 4 || trainer.Config().LR != 1e-3 {
		t.Errorf("config defaults wrong: %+v", trainer.Config())
	}
	st, err := trainer.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 {
		t.Errorf("epoch = %d", st.Epoch)
	}
	if st.RejectionRatio < 0 || st.RejectionRatio > 1 {
		t.Errorf("rejection ratio %v", st.RejectionRatio)
	}
	// Train() accumulates stats and invokes the callback.
	calls := 0
	hist, err := trainer.Train(2, func(EpochStats) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 || calls != 2 {
		t.Errorf("Train ran %d epochs, %d callbacks", len(hist), calls)
	}
	if hist[1].Epoch != 3 {
		t.Errorf("epoch numbering wrong: %d", hist[1].Epoch)
	}
}

// TestTrainingLearnsImprovement is the package's headline test: with a
// modest budget the inspector must move from hurting the base scheduler to
// helping it, and the evaluated greedy policy must beat the base SJF on
// bsld — the paper's central claim, in miniature.
func TestTrainingLearnsImprovement(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test skipped in -short mode")
	}
	tr := workload.SDSCSP2Like(20000, 42)
	// The paper's batch size (100) matters: smaller batches make this
	// sparse-reward training unstable (see EXPERIMENTS.md).
	trainer, err := NewTrainer(TrainConfig{
		Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD,
		Batch: 100, SeqLen: 128, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := trainer.Train(35, nil)
	if err != nil {
		t.Fatal(err)
	}
	early := 0.0
	for _, h := range hist[:5] {
		early += h.MeanPctImprovement / 5
	}
	late := 0.0
	for _, h := range hist[len(hist)-5:] {
		late += h.MeanPctImprovement / 5
	}
	t.Logf("training pct improvement: early %.3f, late %.3f", early, late)
	if late <= early {
		t.Errorf("no learning: early %.3f late %.3f", early, late)
	}
	if late <= 0 {
		t.Errorf("converged improvement %.3f, want positive", late)
	}

	res, err := Evaluate(trainer.Inspector(), EvalConfig{
		Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD,
		Sequences: 20, SeqLen: 256, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	imp := res.MeanImprovement(metrics.BSLD)
	t.Logf("held-out bsld improvement: %.1f%%", 100*imp)
	if imp <= 0.05 {
		t.Errorf("eval improvement %.3f, want > 0.05", imp)
	}
}

func TestEvaluatePlumbing(t *testing.T) {
	tr := workload.SDSCSP2Like(3000, 6)
	cfg := EvalConfig{
		Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD,
		Sequences: 5, SeqLen: 64, Seed: 3,
	}
	// nil inspector: base and "inspected" runs are identical.
	res, err := Evaluate(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Base) != 5 || len(res.Insp) != 5 {
		t.Fatalf("sequence counts %d/%d", len(res.Base), len(res.Insp))
	}
	for i := range res.Base {
		if res.Base[i] != res.Insp[i] {
			t.Errorf("sequence %d differs with nil inspector", i)
		}
	}
	if res.RejectionRatio() != 0 {
		t.Error("nil inspector rejected something")
	}
	b, i := res.Boxes(metrics.BSLD)
	if b.N != 5 || i.N != 5 || b.Mean != i.Mean {
		t.Errorf("boxes wrong: %+v vs %+v", b, i)
	}
	if imp := res.MeanImprovement(metrics.BSLD); imp != 0 {
		t.Errorf("self improvement = %v", imp)
	}

	// error paths
	if _, err := Evaluate(nil, EvalConfig{Policy: sched.SJF()}); err == nil {
		t.Error("missing trace accepted")
	}
	if _, err := Evaluate(nil, EvalConfig{Trace: tr}); err == nil {
		t.Error("missing policy accepted")
	}
	if _, err := Evaluate(nil, EvalConfig{Trace: tr, Policy: sched.SJF(), SeqLen: 10000}); err == nil {
		t.Error("oversized SeqLen accepted")
	}
}

func TestValuesAndSummaryWith(t *testing.T) {
	sums := []metrics.Summary{{AvgBSLD: 1, AvgWait: 10}, {AvgBSLD: 3, AvgWait: 30}}
	v := Values(sums, metrics.BSLD)
	if v[0] != 1 || v[1] != 3 {
		t.Errorf("Values = %v", v)
	}
	for _, m := range []metrics.Metric{metrics.BSLD, metrics.Wait, metrics.MBSLD, metrics.Util} {
		if got := summaryWith(m, 7.5).Of(m); got != 7.5 {
			t.Errorf("summaryWith(%v) = %v", m, got)
		}
	}
}

// Sampling returns a stochastic sim.Inspector that samples actions from the
// policy and appends each (observation, action, logp) step to rec: the
// one-decision-at-a-time reference the trainer's wave sampler must match.
func (in *Inspector) Sampling(rec *[]rl.Step) sim.Inspector {
	return func(s *sim.State) bool {
		in.feat = in.Norm.Features(in.feat, in.Mode, s)
		action, logp := in.Agent.Sample(in.feat)
		*rec = append(*rec, rl.Step{
			Obs:    append([]float64(nil), in.feat...),
			Action: action,
			LogP:   logp,
		})
		return action == ActionReject
	}
}

// Save writes the inspector to w as a model file: a ckpt container whose
// payload is a TrainerCheckpoint (see there).
func (in *Inspector) Save(w io.Writer) error {
	payload, err := in.payload()
	if err != nil {
		return err
	}
	return ckpt.Encode(w, TrainerCheckpointVersion, payload)
}

// LoadInspector reads a model (or checkpoint) written by Save: LoadServable
// for a reader.
func LoadInspector(r io.Reader, rng *rand.Rand) (*Inspector, error) {
	version, payload, err := ckpt.ReadFrame(r, 0)
	if err != nil {
		return nil, err
	}
	c, err := DecodeTrainerCheckpoint(version, payload)
	if err != nil {
		return nil, err
	}
	return c.Inspector(rng), nil
}
