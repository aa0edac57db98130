package expt

import (
	"fmt"
	"text/tabwriter"

	"schedinspector/internal/core"
	"schedinspector/internal/metrics"
	"schedinspector/internal/rl"
	"schedinspector/internal/sched"
	"schedinspector/internal/stats"
)

// Extension experiments: ablations of the design choices DESIGN.md calls
// out (the rejection hyperparameters of §4.1, the actor-critic of §3.1, the
// backfilling variant of §3.2).

// AblateInterval sweeps MAX_INTERVAL, the retry cut-off after a rejection.
// The paper fixes it at 600 s "to avoid idling resources for too long";
// this sweep shows the trade-off directly: longer intervals buy bigger
// bsld improvements at growing utilization cost.
func AblateInterval(o Options) error {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "Ablation: MAX_INTERVAL retry cut-off (SJF, SDSC-SP2, bsld; paper fixes 600s)")
	tr, err := o.trace("SDSC-SP2")
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  MAX_INTERVAL\tbsld impr.\tutil delta\trej.ratio\n")
	for _, interval := range []float64{60, 300, 600, 1800, 3600} {
		trainer, err := core.NewTrainer(core.TrainConfig{
			Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD,
			SeqLen: o.SeqLen, Batch: o.Batch, Seed: o.Seed + 1, Workers: o.Workers,
			MaxInterval: interval,
		})
		if err != nil {
			return err
		}
		if _, err := trainer.Train(o.Epochs, nil); err != nil {
			return err
		}
		res, err := core.Evaluate(trainer.Inspector(), core.EvalConfig{
			Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD,
			Sequences: o.EvalSequences, SeqLen: o.EvalSeqLen, Seed: o.Seed + 2, Workers: o.Workers,
			MaxInterval: interval,
		})
		if err != nil {
			return err
		}
		ub, ui := res.Boxes(metrics.Util)
		fmt.Fprintf(tw, "  %.0fs\t%+.1f%%\t%+.2f%%\t%.2f\n",
			interval, 100*res.MeanImprovement(metrics.BSLD), 100*(ui.Mean-ub.Mean), res.RejectionRatio())
	}
	return tw.Flush()
}

// AblateRejectionCap sweeps MAX_REJECTION_TIMES, the per-job rejection cap
// (paper: 72, i.e. up to 12 hours of deferral).
func AblateRejectionCap(o Options) error {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "Ablation: MAX_REJECTION_TIMES cap (SJF, SDSC-SP2, bsld; paper fixes 72)")
	tr, err := o.trace("SDSC-SP2")
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  cap\tbsld impr.\tutil delta\tmbsld impr.\n")
	for _, cap := range []int{4, 16, 72, 288} {
		trainer, err := core.NewTrainer(core.TrainConfig{
			Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD,
			SeqLen: o.SeqLen, Batch: o.Batch, Seed: o.Seed + 1, Workers: o.Workers,
			MaxRejections: cap,
		})
		if err != nil {
			return err
		}
		if _, err := trainer.Train(o.Epochs, nil); err != nil {
			return err
		}
		res, err := core.Evaluate(trainer.Inspector(), core.EvalConfig{
			Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD,
			Sequences: o.EvalSequences, SeqLen: o.EvalSeqLen, Seed: o.Seed + 2, Workers: o.Workers,
			MaxRejections: cap,
		})
		if err != nil {
			return err
		}
		ub, ui := res.Boxes(metrics.Util)
		fmt.Fprintf(tw, "  %d\t%+.1f%%\t%+.2f%%\t%+.1f%%\n",
			cap, 100*res.MeanImprovement(metrics.BSLD), 100*(ui.Mean-ub.Mean),
			100*res.MeanImprovement(metrics.MBSLD))
	}
	return tw.Flush()
}

// AblateCritic compares the full actor-critic against a critic-less
// REINFORCE-style agent. The paper (§3.1) reports high training variance
// without the value network; this quantifies it as the standard deviation
// of the per-epoch improvement over the back half of training.
func AblateCritic(o Options) error {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "Ablation: actor-critic vs no-critic training variance (SJF, SDSC-SP2, bsld)")
	fmt.Fprintln(o.Out, "(paper §3.1: 'Without the value network, we observed high variations during the training')")
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  agent\tconverged impr.\timpr. stddev (2nd half)\tfinal rej.ratio\n")
	for _, noCritic := range []bool{false, true} {
		tr, err := o.trace("SDSC-SP2")
		if err != nil {
			return err
		}
		trainer, err := core.NewTrainer(core.TrainConfig{
			Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD,
			SeqLen: o.SeqLen, Batch: o.Batch, Seed: o.Seed + 1, Workers: o.Workers,
			PPO: rl.PPOConfig{NoCritic: noCritic},
		})
		if err != nil {
			return err
		}
		hist, err := trainer.Train(o.Epochs, nil)
		if err != nil {
			return err
		}
		half := hist[len(hist)/2:]
		vals := make([]float64, len(half))
		for i, h := range half {
			vals[i] = h.MeanImprovement
		}
		name := "actor-critic"
		if noCritic {
			name = "no critic"
		}
		fmt.Fprintf(tw, "  %s\t%.2f\t%.2f\t%.2f\n",
			name, converged(hist, func(h core.EpochStats) float64 { return h.MeanImprovement }, 5),
			stats.Std(vals), hist[len(hist)-1].RejectionRatio)
	}
	return tw.Flush()
}

// AblateBackfillVariant compares no backfilling against EASY as the
// simulated environment, with and without a trained inspector on top. Its
// models and evaluations are Table 5's SDSC-SP2 SJF rows.
func AblateBackfillVariant(o Options) error {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "Ablation: backfilling variant in the simulated environment (SJF, SDSC-SP2, bsld)")
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  variant\tbase bsld\tinsp bsld\timprovement\tbase util\n")
	for _, backfill := range []bool{false, true} {
		spec := trainSpec{traceName: "SDSC-SP2", policy: "SJF", metric: metrics.BSLD, backfill: backfill}
		trainer, _, tr, err := o.train(spec)
		if err != nil {
			return err
		}
		evalCfg, err := o.evalConfig(tr, spec)
		if err != nil {
			return err
		}
		res, err := core.Evaluate(trainer.Inspector(), evalCfg)
		if err != nil {
			return err
		}
		name := "none"
		if backfill {
			name = "EASY"
		}
		b, i := res.Boxes(metrics.BSLD)
		ub, _ := res.Boxes(metrics.Util)
		fmt.Fprintf(tw, "  %s\t%.1f\t%.1f\t%+.1f%%\t%.1f%%\n",
			name, b.Mean, i.Mean, 100*res.MeanImprovement(metrics.BSLD), 100*ub.Mean)
	}
	return tw.Flush()
}
