package rlsched

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"schedinspector/internal/metrics"
	"schedinspector/internal/nn"
	"schedinspector/internal/rl"
	"schedinspector/internal/sched"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

func testPolicy(seed int64) *Policy {
	rng := rand.New(rand.NewSource(seed))
	return New(rng, Norm{MaxEst: 36000, MeanEst: 6000, MaxProcs: 128}, nil)
}

func queue3(now float64) []workload.Job {
	return []workload.Job{
		{ID: 1, Submit: now - 100, Est: 600, Run: 300, Procs: 4},
		{ID: 2, Submit: now - 50, Est: 7200, Run: 7000, Procs: 64},
		{ID: 3, Submit: now - 10, Est: 60, Run: 50, Procs: 1},
	}
}

func TestSelectBounds(t *testing.T) {
	p := testPolicy(1)
	if got := p.Select(nil, 0, 10, 10); got != -1 {
		t.Errorf("empty queue select = %d", got)
	}
	q := queue3(1000)
	got := p.Select(q, 1000, 64, 128)
	if got < 0 || got >= len(q) {
		t.Fatalf("select out of range: %d", got)
	}
	// Greedy mode is deterministic.
	for i := 0; i < 5; i++ {
		if p.Select(q, 1000, 64, 128) != got {
			t.Fatal("greedy select not deterministic")
		}
	}
}

func TestSelectSamplingRecords(t *testing.T) {
	p := testPolicy(2)
	var steps []rl.Step
	p.SetSampling(true, &steps)
	q := queue3(1000)
	counts := map[int]int{}
	for i := 0; i < 300; i++ {
		idx := p.Select(q, 1000, 64, 128)
		counts[idx]++
	}
	if len(steps) != 300 {
		t.Fatalf("recorded %d steps", len(steps))
	}
	if len(counts) < 2 {
		t.Error("sampling never explored a second action (possible but wildly unlikely untrained)")
	}
	for _, s := range steps {
		if len(s.Obs) != 3*kernelFeatures {
			t.Fatalf("malformed step: %d observed values, want 3 rows of %d", len(s.Obs), kernelFeatures)
		}
		if s.Action < 0 || s.Action >= 3 || s.LogP > 0 {
			t.Fatalf("bad step %+v", s)
		}
	}
}

func TestSelectCapsObservation(t *testing.T) {
	p := testPolicy(3)
	var q []workload.Job
	for i := 0; i < MaxObserve+20; i++ {
		q = append(q, workload.Job{ID: i + 1, Submit: 0, Est: float64(60 + i), Run: 30, Procs: 1})
	}
	var steps []rl.Step
	p.SetSampling(true, &steps)
	idx := p.Select(q, 100, 64, 128)
	if idx >= MaxObserve {
		t.Errorf("selected unobserved job %d", idx)
	}
	if got := len(steps[0].Obs) / kernelFeatures; got != MaxObserve {
		t.Errorf("observed %d candidates, want %d", got, MaxObserve)
	}
}

func TestScoreUsesKernel(t *testing.T) {
	p := testPolicy(4)
	q := queue3(1000)
	// Prime the cluster view.
	p.Select(q, 1000, 64, 128)
	a := p.Score(&q[0], 1000)
	b := p.Score(&q[1], 1000)
	if math.IsNaN(a) || math.IsNaN(b) {
		t.Fatal("NaN scores")
	}
	// Score must be the negated logit of Select's ranking: the greedy-chosen
	// job has the lowest Score among candidates.
	chosen := p.Select(q, 1000, 64, 128)
	best := 0
	bestScore := p.Score(&q[0], 1000)
	for i := 1; i < len(q); i++ {
		if s := p.Score(&q[i], 1000); s < bestScore {
			best, bestScore = i, s
		}
	}
	if best != chosen {
		t.Errorf("Score ranking (%d) disagrees with Select (%d)", best, chosen)
	}
}

func TestPolicyInSimulator(t *testing.T) {
	tr := workload.SDSCSP2Like(2000, 7)
	p := New(rand.New(rand.NewSource(5)), NormForTrace(tr), nil)
	jobs := tr.Window(0, 200)
	res, err := sim.Run(jobs, sim.Config{MaxProcs: tr.MaxProcs, Policy: p, Backfill: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 200 {
		t.Fatalf("scheduled %d of 200", len(res.Results))
	}
	for _, r := range res.Results {
		if r.Start < r.Submit {
			t.Fatalf("job %d starts before submit", r.ID)
		}
	}
}

// TestNewTrainerValidation: a missing or too-small trace, and the settings
// core.TrainConfig refuses, are refused here too, naming the field, instead
// of panicking in NewTrainer or RunEpoch or running an empty epoch.
func TestNewTrainerValidation(t *testing.T) {
	if _, err := NewTrainer(TrainConfig{}); err == nil {
		t.Error("nil trace accepted")
	}
	small := workload.SDSCSP2Like(200, 1)
	if _, err := NewTrainer(TrainConfig{Trace: small, SeqLen: 128}); err == nil {
		t.Error("too-small trace accepted")
	}
	tr := workload.SDSCSP2Like(4000, 8)
	for _, c := range []struct {
		mut  func(*TrainConfig)
		want string
	}{
		{func(c *TrainConfig) { c.SeqLen = -5 }, "TrainConfig.SeqLen = -5, must be >= 1"},
		{func(c *TrainConfig) { c.Batch = -3 }, "TrainConfig.Batch = -3, must be >= 1"},
	} {
		cfg := TrainConfig{Trace: tr, Metric: metrics.BSLD, Batch: 4, SeqLen: 64, Seed: 3}
		c.mut(&cfg)
		trainer, err := func() (tr *Trainer, err error) {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("panic: %v", p)
				}
			}()
			return NewTrainer(cfg)
		}()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("want an error containing %q, got trainer %v, error %v", c.want, trainer != nil, err)
		}
	}
}

func TestTrainerEpoch(t *testing.T) {
	tr := workload.SDSCSP2Like(4000, 8)
	trainer, err := NewTrainer(TrainConfig{
		Trace: tr, Metric: metrics.BSLD, Batch: 4, SeqLen: 64, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := trainer.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 {
		t.Errorf("epoch %d", st.Epoch)
	}
	if math.IsNaN(st.MeanReward) || math.Abs(st.MeanReward) > 5 {
		t.Errorf("reward %v outside clamp", st.MeanReward)
	}
	hist, err := trainer.Train(2, nil)
	if err != nil || len(hist) != 2 {
		t.Fatalf("Train: %v, %d epochs", err, len(hist))
	}
}

// TestRLSchedulerLearns: with a modest budget the learned policy should
// close most of the gap to (or beat) the SJF reference it is rewarded
// against, starting from a random kernel that performs far worse.
func TestRLSchedulerLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test skipped in -short mode")
	}
	tr := workload.SDSCSP2Like(12000, 21)
	trainer, err := NewTrainer(TrainConfig{
		Trace: tr, Metric: metrics.BSLD, Batch: 30, SeqLen: 128, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := trainer.Train(25, nil)
	if err != nil {
		t.Fatal(err)
	}
	early := (hist[0].MeanReward + hist[1].MeanReward + hist[2].MeanReward) / 3
	var late float64
	for _, h := range hist[len(hist)-3:] {
		late += h.MeanReward / 3
	}
	if late <= early {
		t.Errorf("no learning: early %.3f late %.3f", early, late)
	}
	// Greedy evaluation vs SJF on held-out windows: the learned policy
	// should be within 40% of SJF or better (a random policy is many times
	// worse on bsld).
	pol := trainer.Policy()
	pol.SetSampling(false, nil)
	rng := rand.New(rand.NewSource(9))
	lo := tr.Split(0.2)
	var sjfSum, rlSum float64
	const seqs = 15
	for i := 0; i < seqs; i++ {
		jobs := tr.RandomWindow(rng, 256, lo, 0)
		a, err := sim.Run(jobs, sim.Config{MaxProcs: tr.MaxProcs, Policy: sched.SJF()})
		if err != nil {
			t.Fatal(err)
		}
		b, err := sim.Run(jobs, sim.Config{MaxProcs: tr.MaxProcs, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		sjfSum += a.Summary(tr.MaxProcs).AvgBSLD
		rlSum += b.Summary(tr.MaxProcs).AvgBSLD
	}
	if rlSum > sjfSum*1.4 {
		t.Errorf("learned policy bsld %.1f vs SJF %.1f: worse than 1.4x", rlSum/seqs, sjfSum/seqs)
	}
	t.Logf("RLSched bsld %.1f vs SJF %.1f over %d sequences", rlSum/seqs, sjfSum/seqs, seqs)
}

// TestEquivRLSchedSeed: training is a function of the seed. Two trainers
// built alike end three epochs with bit-identical kernel and value
// weights, and epoch 1's mean reward — taken before any update, so it
// reads the sampled rollouts alone — equals the constant the earlier
// trainer, whose Select copied rl.SampleCategorical's loop, recorded: the
// rollouts sample exactly as they did.
func TestEquivRLSchedSeed(t *testing.T) {
	tr := workload.SDSCSP2Like(4000, 8)
	run := func() (*Trainer, []EpochStats) {
		trainer, err := NewTrainer(TrainConfig{Trace: tr, Metric: metrics.BSLD, Batch: 4, SeqLen: 64, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		hist, err := trainer.Train(3, nil)
		if err != nil {
			t.Fatal(err)
		}
		return trainer, hist
	}
	a, hist := run()
	b, _ := run()
	const epoch1 = 0xbfc64d67540e926d // -0.17423717121450313
	if got := math.Float64bits(hist[0].MeanReward); got != epoch1 {
		t.Errorf("epoch 1 mean reward %v (%#x), want %v (%#x)", hist[0].MeanReward, got, math.Float64frombits(epoch1), uint64(epoch1))
	}
	for _, nets := range [][2]*nn.MLP{{a.pol.Kernel, b.pol.Kernel}, {a.pol.Value, b.pol.Value}} {
		x, y := nets[0], nets[1]
		for l := range x.W {
			for k := range x.W[l] {
				if math.Float64bits(x.W[l][k]) != math.Float64bits(y.W[l][k]) {
					t.Fatalf("layer %d weight %d: %v vs %v", l, k, x.W[l][k], y.W[l][k])
				}
			}
			for k := range x.B[l] {
				if math.Float64bits(x.B[l][k]) != math.Float64bits(y.B[l][k]) {
					t.Fatalf("layer %d bias %d: %v vs %v", l, k, x.B[l][k], y.B[l][k])
				}
			}
		}
	}
}

func TestNormForTraceDefaults(t *testing.T) {
	n := NormForTrace(&workload.Trace{MaxProcs: 0})
	if n.MaxEst <= 0 || n.MeanEst <= 0 || n.MaxProcs <= 0 {
		t.Errorf("degenerate norm: %+v", n)
	}
}

func TestScoreWithoutPriorSelect(t *testing.T) {
	// Score must be well-defined before any Select call (backfill ordering
	// can run first): it falls back to an empty-cluster view.
	p := testPolicy(11)
	j := workload.Job{ID: 1, Submit: 0, Est: 100, Run: 50, Procs: 4}
	if s := p.Score(&j, 10); math.IsNaN(s) || math.IsInf(s, 0) {
		t.Errorf("score without select: %v", s)
	}
}

func TestPolicyName(t *testing.T) {
	if testPolicy(1).Name() != "RLSched" {
		t.Error("wrong policy name")
	}
}
