package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"schedinspector/internal/core"
	"schedinspector/internal/metrics"
	"schedinspector/internal/nn"
	"schedinspector/internal/obs"
	"schedinspector/internal/sched"
	"schedinspector/internal/sim"
	"schedinspector/internal/stats"
)

// trainConfig is the training configuration shared by train-epoch, dist-2w
// and the training probes: SJF, bsld, manual features on the set-up trace.
func (b *bench) trainConfig(sz sizes, workers int) core.TrainConfig {
	return core.TrainConfig{
		Trace: b.env.trace, Policy: sched.SJF(), Metric: metrics.BSLD, FeatureMode: core.ManualFeatures,
		Batch: sz.trainBatch, SeqLen: sz.trainSeqLen, Seed: trainSeed, Workers: workers,
	}
}

// epochTimes is what a run of training blocks observed.
type epochTimes struct {
	epoch          opTimes
	rollout, apply []float64 // seconds, one per epoch of a split run
	stats          []core.EpochStats
}

// trainBlocks runs whole blocks of sz.blockEpochs epochs, each from a fresh
// trainer, until budget has elapsed (at least one block). Restarting keeps
// the measured work the same however many epochs fit: epoch k of a block
// does identical work in every block and on every commit, so a faster
// build measures more copies of the same epochs rather than later, cheaper
// or dearer ones. A calibration reading is taken before the first epoch of
// a block and after every epoch. With split set the epochs run as BeginEpoch
// / RolloutShard / ApplyDeltas with one span each.
func trainBlocks(ctx context.Context, cfg core.TrainConfig, blockEpochs int, budget time.Duration, split bool, tr *tracer) (*epochTimes, error) {
	et := &epochTimes{}
	deadline := time.Now().Add(budget)
	for block := 0; block == 0 || time.Now().Before(deadline); block++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		t, err := core.NewTrainer(cfg)
		if err != nil {
			return nil, err
		}
		cal := calibrate()
		for e := 0; e < blockEpochs; e++ {
			id := block*blockEpochs + e
			var st core.EpochStats
			t0 := time.Now()
			if !split {
				if st, err = t.RunEpoch(); err != nil {
					return nil, err
				}
			} else {
				es := tr.begin("core.epoch", "core", -1, id)
				s := tr.begin("core.begin_epoch", "core", es, id)
				t.BeginEpoch()
				tr.end(s)
				s = tr.begin("core.rollout_shard", "core", es, id)
				t1 := time.Now()
				deltas, err := t.RolloutShard(0, cfg.Batch)
				t2 := time.Now()
				tr.end(s)
				if err != nil {
					return nil, err
				}
				s = tr.begin("core.apply_deltas", "rl", es, id)
				st, err = t.ApplyDeltas(deltas)
				t3 := time.Now()
				tr.end(s)
				tr.end(es)
				if err != nil {
					return nil, err
				}
				et.rollout = append(et.rollout, t2.Sub(t1).Seconds())
				et.apply = append(et.apply, t3.Sub(t2).Seconds())
			}
			secs := time.Since(t0).Seconds()
			next := calibrate()
			et.epoch.add(secs, cal, next)
			cal = next
			et.stats = append(et.stats, st)
		}
	}
	return et, nil
}

// checkEpochStats is the train-epoch output check: every statistic finite
// and every epoch gathered RL steps.
func checkEpochStats(o *outcome, stats []core.EpochStats) {
	for _, st := range stats {
		for _, v := range []float64{st.MeanReward, st.MeanImprovement, st.MeanPctImprovement, st.RejectionRatio,
			st.RewardStd, st.ApproxKL, st.PolicyLoss, st.ValueLoss, st.Entropy} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				o.fail(1, "epoch %d has a non-finite statistic: %+v", st.Epoch, st)
				break
			}
		}
		if st.Steps <= 0 {
			o.fail(1, "epoch %d gathered %d steps", st.Epoch, st.Steps)
		}
	}
}

// blockOutcome fills the end-to-end metrics of a workload made of whole
// blocks of kinds ops, op k of every block doing identical work. Each kind
// counts once, at the median of its repeats scaled to the reference speed:
// units of work per second over the kinds, and the median kind.
func blockOutcome(o *outcome, ops opTimes, kinds int, unitsPerOp float64) error {
	rss, err := rssPeakMB(os.Getpid())
	if err != nil {
		return err
	}
	meds := medianOfKinds(ops.scaled, kinds)
	o.samples = len(ops.scaled)
	o.set("ops_per_s", unitsPerOp/stats.Mean(meds))
	o.set("op_p50_ms", median(meds)*1e3)
	o.set("rss_peak_mb", rss)
	return nil
}

// runTrain is the untraced pass of train-epoch: blocks for the measured
// time. There is no warm-up block: a cold first block does not move a kind's
// median.
func runTrain(ctx context.Context, b *bench, sz sizes, seconds time.Duration) (*outcome, error) {
	et, err := trainBlocks(ctx, b.trainConfig(sz, b.nproc), sz.blockEpochs, seconds, false, nil)
	if err != nil {
		return nil, err
	}
	o := &outcome{attempted: len(et.epoch.raw)}
	checkEpochStats(o, et.stats)
	return o, blockOutcome(o, et.epoch, sz.blockEpochs, float64(sz.trainBatch))
}

// layersTrain is the traced pass of the train group: an untraced block as
// the base of the tracing overhead, phase-split blocks with spans, then the
// probes of the layers under the trainer on windows of the same trace.
func layersTrain(ctx context.Context, b *bench, sz sizes, budget time.Duration, tr *tracer, out values) (*outcome, error) {
	reg := obs.NewRegistry()
	rm := core.NewRolloutMetrics(reg)
	cfg := b.trainConfig(sz, b.nproc)
	plain, err := trainBlocks(ctx, cfg, sz.blockEpochs, 0, false, nil)
	if err != nil {
		return nil, err
	}
	cfg.Metrics = rm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	et, err := trainBlocks(ctx, cfg, sz.blockEpochs, budget/2, true, tr)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	o := &outcome{attempted: len(plain.epoch.raw) + len(et.epoch.raw)}
	checkEpochStats(o, et.stats)

	n := float64(len(et.epoch.raw))
	out["core.rollout_shard_s"] = median(et.rollout)
	out["core.apply_deltas_s"] = median(et.apply)
	out["core.update_share"] = stats.Mean(et.apply) / stats.Mean(et.epoch.raw)
	// Every block does the same work, so the per-epoch means repeat exactly
	// however many blocks the budget allowed.
	var steps, iters float64
	for _, st := range et.stats {
		steps += float64(st.Steps)
		iters += float64(st.PolicyIters)
	}
	out["rollout.steps_per_epoch"] = steps / n
	out["rl.policy_iters_per_epoch"] = iters / n
	out["rl.update_ns_per_step"] = stats.Mean(et.apply) * n * 1e9 / steps
	out["rollout.utilization"] = rm.WorkerUtilization.Value()
	hits, misses := rm.BaselineCacheHits.Value(), rm.BaselineCacheMisses.Value()
	out["core.basecache_hit_ratio"] = hits / math.Max(1, hits+misses)
	out["train.allocs_per_epoch"] = float64(after.Mallocs-before.Mallocs) / n
	out["train.bytes_per_epoch"] = float64(after.TotalAlloc-before.TotalAlloc) / n
	if tr != nil {
		out["trace_overhead_ratio"] = median(medianOfKinds(et.epoch.raw, sz.blockEpochs)) / median(medianOfKinds(plain.epoch.raw, sz.blockEpochs))
	}
	parts := out["core.rollout_shard_s"] + out["core.apply_deltas_s"]
	o.note("train: rollout + apply medians sum to %.4f s, epoch median %.4f s (ratio %.3f)", parts, median(et.epoch.raw), parts/median(et.epoch.raw))

	// Checkpoint: snapshot + container write of a trainer that has state.
	t, err := core.NewTrainer(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := t.RunEpoch(); err != nil {
		return nil, err
	}
	dir := filepath.Join(b.env.runDir, "ckpt")
	s := tr.begin("core.checkpoint", "core", -1, 0)
	t0 := time.Now()
	path, err := t.SaveCheckpoint(dir)
	out["core.checkpoint_s"] = time.Since(t0).Seconds()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	out["core.checkpoint_bytes"] = float64(fi.Size())

	return o, simProbes(b, sz, tr, out)
}

// simProbes times the layers under the trainer on fixed windows of the
// training region: the simulator with the stochastic inspector (per
// decision), the simulator alone (per job) and the batched forward (per
// row, rows = batch).
func simProbes(b *bench, sz sizes, tr *tracer, out values) error {
	trc := b.env.trace
	insp := b.env.ref.Clone(rand.New(rand.NewSource(trainSeed)))
	region := trc.Split(0.2) - sz.trainSeqLen
	cfg := sim.Config{MaxProcs: trc.MaxProcs, Policy: sched.SJF(), NoValidate: true}
	var decisions, jobs int
	var inspected, base time.Duration
	for w := 0; w < sz.simWindows; w++ {
		win := trc.Window(w*region/sz.simWindows, sz.trainSeqLen)
		cfg.Inspector = insp.Stochastic()
		s := tr.begin("sim.run_inspected", "sim", -1, w)
		t0 := time.Now()
		res, err := sim.Run(win, cfg)
		inspected += time.Since(t0)
		tr.end(s)
		if err != nil {
			return err
		}
		decisions += res.Inspections
		cfg.Inspector = nil
		s = tr.begin("sim.run_base", "sim", -1, w)
		t0 = time.Now()
		_, err = sim.Run(win, cfg)
		base += time.Since(t0)
		tr.end(s)
		if err != nil {
			return err
		}
		jobs += len(win)
	}
	if decisions == 0 {
		return fmt.Errorf("sim probe: the inspector was never consulted over %d windows", sz.simWindows)
	}
	out["sim.ns_per_decision"] = float64(inspected.Nanoseconds()) / float64(decisions)
	out["sim.base_ns_per_job"] = float64(base.Nanoseconds()) / float64(jobs)

	rows, dim := sz.trainBatch, insp.Mode.Dim()
	xs := make([]float64, rows*dim)
	rng := rand.New(rand.NewSource(trainSeed))
	for i := range xs {
		xs[i] = rng.Float64()
	}
	var cache nn.BatchCache
	const reps = 2000
	insp.Agent.Policy.ForwardBatch(xs, rows, &cache)
	s := tr.begin("nn.forward_batch", "nn", -1, reps)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		insp.Agent.Policy.ForwardBatch(xs, rows, &cache)
	}
	el := time.Since(t0)
	tr.end(s)
	out["nn.forward_batch_ns_per_row"] = float64(el.Nanoseconds()) / float64(reps*rows)
	return nil
}

// evalKinds is the number of passes in an evaluation block: pass k of every
// block evaluates the sequences drawn from seed + k.
const evalKinds = 2

// evalBlocks runs blocks of evalKinds core.Evaluate passes on the set-up
// model (F1 with EASY backfilling on the test region, sequences drawn from
// -seed) until budget has elapsed (at least one block), and checks that
// MeanImprovement of pass k is bit-equal in every block.
func evalBlocks(ctx context.Context, b *bench, sz sizes, budget time.Duration, tr *tracer, o *outcome) (ops opTimes, last core.EvalResult, err error) {
	cfg := core.EvalConfig{
		Trace: b.env.trace, Policy: sched.F1(), Metric: metrics.BSLD, Backfill: true,
		Sequences: sz.evalSeqs, SeqLen: sz.evalSeqLen, Workers: b.nproc,
	}
	var first [evalKinds]float64
	deadline := time.Now().Add(budget)
	cal := calibrate()
	for block := 0; block == 0 || time.Now().Before(deadline); block++ {
		for k := 0; k < evalKinds; k++ {
			if ctx.Err() != nil {
				return ops, last, ctx.Err()
			}
			cfg.Seed = b.seed + int64(k)
			s := tr.begin("core.evaluate", "core", -1, block*evalKinds+k)
			t0 := time.Now()
			last, err = core.Evaluate(b.env.ref, cfg)
			secs := time.Since(t0).Seconds()
			tr.end(s)
			if err != nil {
				return ops, last, err
			}
			next := calibrate()
			ops.add(secs, cal, next)
			cal = next
			o.attempted++
			mi := last.MeanImprovement(cfg.Metric)
			if block == 0 {
				first[k] = mi
			} else if math.Float64bits(mi) != math.Float64bits(first[k]) {
				o.fail(1, "block %d pass %d MeanImprovement %v differs from block 0's %v", block, k, mi, first[k])
			}
		}
	}
	return ops, last, nil
}

// runEval is the untraced pass of eval-backfill. ops_per_s counts simulated
// jobs: both arms of every sequence.
func runEval(ctx context.Context, b *bench, sz sizes, seconds time.Duration) (*outcome, error) {
	o := &outcome{}
	ops, _, err := evalBlocks(ctx, b, sz, seconds, nil, o)
	if err != nil {
		return nil, err
	}
	return o, blockOutcome(o, ops, evalKinds, float64(2*sz.evalSeqs*sz.evalSeqLen))
}

// layersEval is the traced pass of the eval group: evaluation passes with a
// span each, then the base-policy simulator with EASY backfilling on and
// off over the same windows of the test region.
func layersEval(ctx context.Context, b *bench, sz sizes, budget time.Duration, tr *tracer, out values) (*outcome, error) {
	o := &outcome{}
	plain, _, err := evalBlocks(ctx, b, sz, 0, nil, o)
	if err != nil {
		return nil, err
	}
	secs, res, err := evalBlocks(ctx, b, sz, budget/2, tr, o)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		out["trace_overhead_ratio"] = median(medianOfKinds(secs.raw, evalKinds)) / median(medianOfKinds(plain.raw, evalKinds))
	}
	out["eval.inspections_per_job"] = float64(res.Inspections) / float64(sz.evalSeqs*sz.evalSeqLen)
	out["eval.rejection_ratio"] = res.RejectionRatio()

	trc := b.env.trace
	lo := trc.Split(0.2)
	span := trc.Len() - sz.evalSeqLen - lo
	rng := rand.New(rand.NewSource(b.seed))
	var on, off time.Duration
	jobs := 0
	for w := 0; w < sz.simWindows; w++ {
		win := trc.Window(lo+rng.Intn(span), sz.evalSeqLen)
		for _, backfill := range []bool{true, false} {
			cfg := sim.Config{MaxProcs: trc.MaxProcs, Policy: sched.F1(), Backfill: backfill, NoValidate: true}
			name := "sim.run_nobackfill"
			if backfill {
				name = "sim.run_backfill"
			}
			s := tr.begin(name, "sim", -1, w)
			t0 := time.Now()
			_, err := sim.Run(win, cfg)
			el := time.Since(t0)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			if backfill {
				on += el
			} else {
				off += el
			}
		}
		jobs += len(win)
	}
	out["sim.backfill_ns_per_job"] = float64(on.Nanoseconds()) / float64(jobs)
	out["sim.nobackfill_ns_per_job"] = float64(off.Nanoseconds()) / float64(jobs)
	return o, nil
}
