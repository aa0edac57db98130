package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"schedinspector/internal/metrics"
	"schedinspector/internal/obs"
	"schedinspector/internal/rollout"
	"schedinspector/internal/sched"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

// TestStreamRNGDeterministic pins the derivation property the whole engine
// rests on: a trajectory's stream depends only on (seed, tags), never on
// which worker or in what order it runs.
func TestStreamRNGDeterministic(t *testing.T) {
	a := streamRNG(42, streamTrain, 3, 7)
	b := streamRNG(42, streamTrain, 3, 7)
	for i := 0; i < 10; i++ {
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("same tags diverged at draw %d: %d vs %d", i, x, y)
		}
	}
	if streamSeed(42, streamTrain, 3, 7) == streamSeed(42, streamTrain, 3, 8) {
		t.Error("adjacent trajectory indices produced the same stream seed")
	}
	if streamSeed(42, streamTrain, 3) == streamSeed(42, streamEval, 3) {
		t.Error("train and eval purposes produced the same stream seed")
	}
	if streamSeed(1, streamTrain) == streamSeed(2, streamTrain) {
		t.Error("different base seeds produced the same stream seed")
	}
}

// trainStats runs a short training with the given worker count and returns
// the per-epoch statistics plus the serialized trained model.
func trainStats(t *testing.T, tr *workload.Trace, pol sched.Policy, workers int) ([]EpochStats, []byte) {
	t.Helper()
	trainer, err := NewTrainer(TrainConfig{
		Trace: tr, Policy: pol, Metric: metrics.BSLD,
		Batch: 6, SeqLen: 64, Seed: 11, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := trainer.Train(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trainer.Inspector().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return hist, buf.Bytes()
}

// TestRunEpochWorkerEquivalence is the tentpole guarantee: training with a
// worker pool is bit-identical to sequential training — same epoch
// statistics (wall clock aside) and the same serialized model. The
// uncloneable stateful policy covers the fallback where both arms run
// sequentially on one shared instance whatever Workers says.
func TestRunEpochWorkerEquivalence(t *testing.T) {
	tr := workload.SDSCSP2Like(3000, 7)
	for _, pol := range []sched.Policy{sched.SJF(), sched.NewSlurm(tr), statefulNoClone{sched.SJF()}} {
		seqHist, seqModel := trainStats(t, tr, pol, 1)
		parHist, parModel := trainStats(t, tr, pol, 8)
		if len(seqHist) != len(parHist) {
			t.Fatalf("%s: epoch counts differ: %d vs %d", pol.Name(), len(seqHist), len(parHist))
		}
		for i := range seqHist {
			a, b := seqHist[i], parHist[i]
			a.Seconds, b.Seconds = 0, 0 // wall clock is the one legitimate difference
			if a != b {
				t.Errorf("%s: epoch %d stats differ:\n  workers=1: %+v\n  workers=8: %+v", pol.Name(), i+1, a, b)
			}
		}
		if !bytes.Equal(seqModel, parModel) {
			t.Errorf("%s: serialized models differ between workers=1 and workers=8", pol.Name())
		}
	}
}

// TestEvaluateWorkerEquivalence checks the evaluation half of the guarantee,
// including order independence: with 8 workers the completion order of
// sequences is scheduler-dependent, yet the reduced result must be identical
// to the sequential run.
func TestEvaluateWorkerEquivalence(t *testing.T) {
	tr := workload.SDSCSP2Like(3000, 6)
	insp := newTestInspector(t, ManualFeatures)
	for _, pol := range []sched.Policy{sched.SJF(), sched.NewSlurm(tr)} {
		cfg := EvalConfig{
			Trace: tr, Policy: pol, Metric: metrics.BSLD,
			Sequences: 8, SeqLen: 64, Seed: 3,
		}
		cfg.Workers = 1
		seq, err := Evaluate(insp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 8
		par, err := Evaluate(insp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Inspections != par.Inspections || seq.Rejections != par.Rejections {
			t.Errorf("%s: counts differ: %d/%d vs %d/%d", pol.Name(),
				seq.Inspections, seq.Rejections, par.Inspections, par.Rejections)
		}
		for i := range seq.Base {
			if seq.Base[i] != par.Base[i] || seq.Insp[i] != par.Insp[i] {
				t.Errorf("%s: sequence %d summaries differ between worker counts", pol.Name(), i)
			}
		}
	}
}

// TestTrainConfigValidate covers the satellite: deliberately out-of-range
// fields are rejected with errors naming the field, instead of being
// silently zero-defaulted or crashing mid-training.
func TestTrainConfigValidate(t *testing.T) {
	tr := workload.SDSCSP2Like(2000, 1)
	base := func() TrainConfig {
		return TrainConfig{Trace: tr, Policy: sched.SJF(), Batch: 4, SeqLen: 64}
	}
	cases := []struct {
		name string
		mut  func(*TrainConfig)
		want string // substring the error must contain
	}{
		{"negative SeqLen", func(c *TrainConfig) { c.SeqLen = -1 }, "SeqLen"},
		{"negative Batch", func(c *TrainConfig) { c.Batch = -2 }, "Batch"},
		{"negative LR", func(c *TrainConfig) { c.LR = -1e-3 }, "LR"},
		{"NaN LR", func(c *TrainConfig) { c.LR = math.NaN() }, "LR"},
		{"infinite LR", func(c *TrainConfig) { c.LR = math.Inf(1) }, "LR"},
		{"negative TrainFrac", func(c *TrainConfig) { c.TrainFrac = -0.1 }, "TrainFrac"},
		{"TrainFrac above 1", func(c *TrainConfig) { c.TrainFrac = 1.5 }, "TrainFrac"},
		{"negative MaxInterval", func(c *TrainConfig) { c.MaxInterval = -600 }, "MaxInterval"},
		{"NaN MaxInterval", func(c *TrainConfig) { c.MaxInterval = math.NaN() }, "MaxInterval"},
		{"negative MaxRejections", func(c *TrainConfig) { c.MaxRejections = -1 }, "MaxRejections"},
		{"negative Workers", func(c *TrainConfig) { c.Workers = -4 }, "Workers"},
		{"negative World", func(c *TrainConfig) { c.World = -1 }, "World"},
		{"World above Batch", func(c *TrainConfig) { c.World = 5 /* Batch is 4 */ }, "World"},
		{"negative Rank", func(c *TrainConfig) {
			c.World, c.Rank, c.Peers = 2, -1, []string{"a.sock", "b.sock"}
		}, "Rank"},
		{"Rank at World", func(c *TrainConfig) {
			c.World, c.Rank, c.Peers = 2, 2, []string{"a.sock", "b.sock"}
		}, "Rank"},
		{"too few peers", func(c *TrainConfig) {
			c.World, c.Peers = 3, []string{"a.sock", "b.sock"}
		}, "Peers"},
		{"too many peers", func(c *TrainConfig) {
			c.World, c.Peers = 2, []string{"a.sock", "b.sock", "c.sock"}
		}, "Peers"},
		{"peers without world", func(c *TrainConfig) { c.Peers = []string{"a.sock"} }, "Peers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			_, err := NewTrainer(cfg)
			if err == nil {
				t.Fatalf("config accepted: %+v", cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
	}
	// The zero-valued optional fields must still take their defaults.
	if _, err := NewTrainer(base()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	// A well-formed distributed config must pass.
	dc := base()
	dc.World, dc.Rank, dc.Peers = 2, 1, []string{"a.sock", "b.sock"}
	if _, err := NewTrainer(dc); err != nil {
		t.Fatalf("valid distributed config rejected: %v", err)
	}
}

// TestEvalConfigValidate: deliberately out-of-range evaluation fields are
// rejected with errors naming the field, instead of panicking (a negative
// Sequences), failing later with a misleading error (a negative SeqLen) or
// being silently replaced (a TestFrom outside [0, 1)).
func TestEvalConfigValidate(t *testing.T) {
	tr := workload.SDSCSP2Like(2000, 1)
	base := func() EvalConfig {
		return EvalConfig{Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD, Sequences: 2, SeqLen: 64, Workers: 1}
	}
	cases := []struct {
		name string
		mut  func(*EvalConfig)
		want string // substring the error must contain
	}{
		{"negative Sequences", func(c *EvalConfig) { c.Sequences = -1 }, "Sequences"},
		{"negative SeqLen", func(c *EvalConfig) { c.SeqLen = -64 }, "SeqLen"},
		{"negative TestFrom", func(c *EvalConfig) { c.TestFrom = -0.1 }, "TestFrom"},
		{"TestFrom at 1", func(c *EvalConfig) { c.TestFrom = 1 }, "TestFrom"},
		{"NaN TestFrom", func(c *EvalConfig) { c.TestFrom = math.NaN() }, "TestFrom"},
		{"negative MaxInterval", func(c *EvalConfig) { c.MaxInterval = -600 }, "MaxInterval"},
		{"NaN MaxInterval", func(c *EvalConfig) { c.MaxInterval = math.NaN() }, "MaxInterval"},
		{"negative MaxRejections", func(c *EvalConfig) { c.MaxRejections = -1 }, "MaxRejections"},
		{"negative Workers", func(c *EvalConfig) { c.Workers = -4 }, "Workers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			_, err := Evaluate(nil, cfg)
			if err == nil {
				t.Fatalf("config accepted: %+v", cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
	}
	// Zero-valued fields take their defaults, and a test region that starts
	// at the very beginning of the trace (the online loop's shadow evaluation)
	// stays valid.
	for _, from := range []float64{0, 1e-12} {
		cfg := base()
		cfg.TestFrom = from
		if _, err := Evaluate(nil, cfg); err != nil {
			t.Errorf("TestFrom %v rejected: %v", from, err)
		}
	}
}

// statefulNoClone is a stateful policy without ClonePolicy — the case that
// must force the pool back to a single worker.
type statefulNoClone struct{ sched.Policy }

func (statefulNoClone) Reset() {}

func TestPolicyClones(t *testing.T) {
	// Stateless policies are shared across workers (the dynamic value is an
	// uncomparable struct, so assert sharing through behavior: every slot is
	// populated with a working policy).
	sjf := sched.SJF()
	pols, ok := rollout.PolicyClones(sjf, 4)
	if !ok || len(pols) != 4 {
		t.Fatalf("stateless: ok=%v len=%d", ok, len(pols))
	}
	for i, p := range pols {
		if p == nil || p.Name() != sjf.Name() {
			t.Errorf("slot %d does not hold the stateless policy: %v", i, p)
		}
	}

	// Cloneable stateful policies get one private instance per worker.
	tr := workload.SDSCSP2Like(500, 2)
	slurm := sched.NewSlurm(tr)
	pols, ok = rollout.PolicyClones(slurm, 3)
	if !ok || len(pols) != 3 {
		t.Fatalf("slurm: ok=%v len=%d", ok, len(pols))
	}
	if pols[0] != sched.Policy(slurm) {
		t.Error("original policy not at index 0")
	}
	if pols[1] == pols[0] || pols[2] == pols[0] || pols[1] == pols[2] {
		t.Error("slurm clones are not distinct instances")
	}

	// Stateful without Cloner: sequential fallback.
	if pols, ok = rollout.PolicyClones(statefulNoClone{sched.SJF()}, 4); ok || len(pols) != 1 {
		t.Errorf("stateful non-cloner: ok=%v len=%d, want fallback", ok, len(pols))
	}

	// One worker never needs clones, whatever the policy.
	if pols, ok = rollout.PolicyClones(statefulNoClone{sched.SJF()}, 1); !ok || len(pols) != 1 {
		t.Errorf("single worker: ok=%v len=%d", ok, len(pols))
	}
}

// TestRolloutMetricsPublished checks that a training epoch feeds the obs
// instruments: worker gauges and trajectory latency samples appear in the
// rendered registry, one sample per trajectory (both arms summed), and no
// baseline-cache series is registered.
func TestRolloutMetricsPublished(t *testing.T) {
	tr := workload.SDSCSP2Like(3000, 8)
	reg := obs.NewRegistry()
	m := NewRolloutMetrics(reg)
	trainer, err := NewTrainer(TrainConfig{
		Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD,
		Batch: 4, SeqLen: 64, Seed: 2, Workers: 2, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"schedinspector_rollout_workers 2",
		"schedinspector_rollout_worker_utilization",
		"schedinspector_rollout_trajectory_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered metrics missing %q", want)
		}
	}
	if strings.Contains(out, "cache") {
		t.Errorf("rendered metrics still carry a baseline-cache series:\n%s", out)
	}
	if !strings.Contains(out, "schedinspector_rollout_trajectory_seconds_count 4") {
		t.Errorf("expected 4 trajectory observations in:\n%s", out)
	}
}

// BenchmarkRunEpochWorkers measures one training epoch at increasing worker
// counts. Workers fan out only the rollout, and the serial PPO update is
// about 95 % of an epoch, so expect the rows to differ by a few per cent at
// most on any number of cores; BenchmarkEvaluateWorkers is the one that
// shows the rollout scaling.
func BenchmarkRunEpochWorkers(b *testing.B) {
	tr := workload.SDSCSP2Like(6000, 17)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			trainer, err := NewTrainer(TrainConfig{
				Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD,
				Batch: 16, SeqLen: 64, Seed: 29, Workers: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := trainer.RunEpoch(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvaluateWorkers measures one paired evaluation pass — F1 with
// EASY backfilling, 200 sequences x 256 jobs, inference only — at
// increasing worker counts. Run it with -cpu 1,2,4: every worker drives its
// own waves, so with as many cores as workers a pass should take close to
// 1/workers of the workers=1 time, and on one core all rows cost the same.
func BenchmarkEvaluateWorkers(b *testing.B) {
	tr := workload.SDSCSP2Like(6000, 17)
	insp := NewInspector(rand.New(rand.NewSource(4)), ManualFeatures, NormalizerForTrace(tr, metrics.BSLD))
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := EvalConfig{
				Trace: tr, Policy: sched.F1(), Metric: metrics.BSLD, Backfill: true,
				Sequences: 200, SeqLen: 256, Seed: 29, Workers: workers,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Evaluate(insp, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRolloutShard measures the rollout phase of one training epoch in
// the train-epoch shape (SJF, bsld, batch 32 x 128 jobs) at increasing
// worker counts, without the PPO update: each iteration is a new epoch's
// windows and actions under the same weights.
func BenchmarkRolloutShard(b *testing.B) {
	tr := workload.SDSCSP2Like(6000, 17)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			trainer, err := NewTrainer(TrainConfig{
				Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD, FeatureMode: ManualFeatures,
				Batch: 32, SeqLen: 128, Seed: 29, Workers: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				trainer.BeginEpoch()
				if _, err := trainer.RolloutShard(0, 32); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// raceBuild is set by race_test.go when the race detector is compiled in.
var raceBuild bool

// TestRolloutShardAllocs: both arms of a training shard run on the driver's
// recycled Envs and window buffers, so a trajectory costs a bounded number
// of allocations (its step log, its delta, its episode configs) rather than
// a window copy and an Env per baseline.
func TestRolloutShardAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector adds allocations of its own")
	}
	const batch = 32
	trainer, err := NewTrainer(TrainConfig{
		Trace: workload.SDSCSP2Like(6000, 17), Policy: sched.SJF(), Metric: metrics.BSLD,
		FeatureMode: ManualFeatures, Batch: batch, SeqLen: 128, Seed: 29, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		trainer.BeginEpoch()
		if _, err := trainer.RolloutShard(0, batch); err != nil {
			t.Fatal(err)
		}
	})
	perTraj := allocs / batch
	t.Logf("%.0f allocs per shard, %.1f per trajectory", allocs, perTraj)
	if perTraj > 20 {
		t.Fatalf("RolloutShard makes %.1f allocations per trajectory; the budget is 20", perTraj)
	}
}

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// evalBytesPerPass is the mean of what three Evaluate passes allocate after
// a warm-up pass has built the lazily built state.
func evalBytesPerPass(t *testing.T, insp *Inspector, cfg EvalConfig) float64 {
	t.Helper()
	if _, err := Evaluate(insp, cfg); err != nil {
		t.Fatal(err)
	}
	const passes = 3
	return allocated(func() {
		for i := 0; i < passes; i++ {
			if _, err := Evaluate(insp, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}) / passes
}

// TestEvaluateBytesIndependentOfSeqLen: an evaluation pass keeps nothing of
// an episode but its outcome, so the bytes it allocates grow with the one
// live window a worker recycles, not with sequences x jobs. Four times the
// jobs per sequence over 64 sequences may cost at most 256 KB more per pass;
// copying every window and every episode's per-job results costs ~2.3 MB.
func TestEvaluateBytesIndependentOfSeqLen(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's shadow allocations are counted in TotalAlloc")
	}
	tr := workload.SDSCSP2Like(3000, 17)
	insp := NewInspector(rand.New(rand.NewSource(4)), ManualFeatures, NormalizerForTrace(tr, metrics.BSLD))
	bytesPerPass := func(seqLen int) float64 {
		return evalBytesPerPass(t, insp, EvalConfig{
			Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD,
			Sequences: 64, SeqLen: seqLen, Seed: 5, Workers: 1,
		})
	}
	short, long := bytesPerPass(64), bytesPerPass(256)
	t.Logf("bytes per pass: %.0f at SeqLen 64, %.0f at SeqLen 256", short, long)
	if long-short >= 256<<10 {
		t.Fatalf("SeqLen 256 allocates %.0f B more per pass than SeqLen 64; the budget is 256 KB", long-short)
	}
}

// TestEvaluateWorkersBytes: the live window a rollout worker keeps is sized
// for memory. Evaluate 200 x 256 at Workers 2 may allocate per pass at most
// what Workers 1 allocates (one recycled Env) plus 2 x evalWindow Envs, each
// priced at the most one fresh Env and its job buffer allocate over an
// episode of the trace. A window of 32 or 64 episodes per worker exceeds it.
func TestEvaluateWorkersBytes(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's shadow allocations are counted in TotalAlloc")
	}
	const evalWindow = 16 // live episodes per worker
	const seqLen = 256
	tr := workload.SDSCSP2Like(6000, 17)
	insp := NewInspector(rand.New(rand.NewSource(4)), ManualFeatures, NormalizerForTrace(tr, metrics.BSLD))
	// Windows differ in how far their queues grow, so an Env is priced at
	// the heaviest of a fresh Env's episodes every 100 jobs, each job
	// rejected once.
	simCfg := sim.Config{MaxProcs: tr.MaxProcs, Policy: sched.F1(), Backfill: true, NoValidate: true}
	var envBytes float64
	for start := 0; start+seqLen <= tr.Len(); start += 100 {
		envBytes = max(envBytes, allocated(func() {
			env := sim.NewEnv()
			st, done, err := env.Reset(tr.WindowInto(nil, start, seqLen), simCfg)
			for err == nil && !done {
				st, done = env.Step(st.Rejections == 0)
			}
			if err != nil {
				t.Fatal(err)
			}
		}))
	}
	bytesPerPass := func(workers int) float64 {
		return evalBytesPerPass(t, insp, EvalConfig{
			Trace: tr, Policy: sched.F1(), Metric: metrics.BSLD, Backfill: true,
			Sequences: 200, SeqLen: seqLen, Seed: 29, Workers: workers,
		})
	}
	one, two := bytesPerPass(1), bytesPerPass(2)
	t.Logf("bytes per pass: %.0f at Workers 1, %.0f at Workers 2; an Env %.0f", one, two, envBytes)
	if budget := one + 2*evalWindow*envBytes; two > budget {
		t.Fatalf("Evaluate at Workers 2 allocates %.0f B per pass; the budget is Workers 1's %.0f B plus %d Envs of %.0f B",
			two, one, 2*evalWindow, envBytes)
	}
}
