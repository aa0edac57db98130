package expt

import (
	"bytes"
	"fmt"
	"text/tabwriter"

	"schedinspector/internal/core"
	"schedinspector/internal/explain"
	"schedinspector/internal/metrics"
	"schedinspector/internal/workload"
)

// Fig4 reproduces the main training curves: SchedInspector on SJF and F1
// across all four traces, optimizing bsld. The paper's claim: curves start
// negative and converge positive on every trace under both policies.
func Fig4(o Options) error {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "Figure 4: training curves of SchedInspector (metric bsld)")
	fmt.Fprintln(o.Out, "(paper: all 8 curves converge above 0; e.g. F1 improves 40% on SDSC-SP2, 95% on Lublin)")
	for _, polName := range []string{"SJF", "F1"} {
		for _, traceName := range workload.PaperTraces() {
			spec := trainSpec{traceName: traceName, policy: polName, metric: metrics.BSLD}
			_, hist, _, err := o.train(spec)
			if err != nil {
				return err
			}
			printCurve(o.Out, fmt.Sprintf("%s on %s:", polName, traceName), hist)
		}
	}
	return nil
}

// Fig5 reproduces the feature-building ablation on [SJF, bsld, SDSC-SP2]:
// manual features must beat compacted features, and native (raw) features
// must do worst (the paper observes native never converges positive).
func Fig5(o Options) error {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "Figure 5: feature building ablation (SJF, SDSC-SP2, bsld)")
	fmt.Fprintln(o.Out, "(paper: manual 25.1 converged improvement vs compacted 8.7; native never positive)")
	for _, mode := range []core.FeatureMode{core.ManualFeatures, core.CompactedFeatures, core.NativeFeatures} {
		spec := trainSpec{traceName: "SDSC-SP2", policy: "SJF", metric: metrics.BSLD, features: mode}
		_, hist, _, err := o.train(spec)
		if err != nil {
			return err
		}
		printCurve(o.Out, fmt.Sprintf("features=%s:", mode), hist)
	}
	return nil
}

// Fig6 reproduces the reward-function ablation on [SJF, bsld, SDSC-SP2]:
// the percentage reward should converge to the best raw bsld difference
// even though the y-axis metric is exactly what the native reward optimizes.
func Fig6(o Options) error {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "Figure 6: reward function ablation (SJF, SDSC-SP2, bsld)")
	fmt.Fprintln(o.Out, "(paper: percentage reward best, then win/loss; native reward suffers high variance)")
	for _, kind := range []core.RewardKind{core.PercentageReward, core.WinLossReward, core.NativeReward} {
		spec := trainSpec{traceName: "SDSC-SP2", policy: "SJF", metric: metrics.BSLD, reward: kind}
		_, hist, _, err := o.train(spec)
		if err != nil {
			return err
		}
		printCurve(o.Out, fmt.Sprintf("reward=%s:", kind), hist)
	}
	return nil
}

// Fig7 reproduces training on the remaining base policies (FCFS, LCFS, SRF,
// SAF) with their rejection ratios. The paper's key observation: FCFS gains
// nothing and its rejection ratio collapses toward zero, because rejecting
// never changes which job FCFS picks next; the others converge positive
// with ratios around 40-50%.
func Fig7(o Options) error {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "Figure 7: SchedInspector on other base policies (SDSC-SP2, bsld)")
	fmt.Fprintln(o.Out, "(paper: FCFS converges to ~0 improvement and <10% rejection; LCFS/SRF/SAF converge to 144.9/52.9/34.5)")
	for _, polName := range []string{"FCFS", "LCFS", "SRF", "SAF"} {
		spec := trainSpec{traceName: "SDSC-SP2", policy: polName, metric: metrics.BSLD}
		_, hist, _, err := o.train(spec)
		if err != nil {
			return err
		}
		printCurve(o.Out, polName+":", hist)
	}
	return nil
}

// Fig8 reproduces the test-time study: 50 sequences of 256 jobs sampled
// from the held-out 80% of each trace, scheduled by the base policy and by
// its inspected counterpart; box statistics of bsld.
func Fig8(o Options) error {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "Figure 8: test-time scheduling performance (bsld; box stats over sampled sequences)")
	fmt.Fprintln(o.Out, "(paper: inspected mean bsld better by 13.6%-91.6% across traces and policies)")
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  policy\ttrace\tbase mean\tinsp mean\timprovement\twins\tsign-p\t95%% CI on delta\n")
	for _, polName := range []string{"SJF", "F1"} {
		for _, traceName := range workload.PaperTraces() {
			spec := trainSpec{traceName: traceName, policy: polName, metric: metrics.BSLD}
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
			b, i := res.Boxes(metrics.BSLD)
			d := res.Compare(metrics.BSLD, o.Seed+3)
			fmt.Fprintf(tw, "  %s\t%s\t%.1f\t%.1f\t%+.1f%%\t%d/%d\t%.3f\t[%.1f, %.1f]\n",
				polName, traceName, b.Mean, i.Mean, 100*res.MeanImprovement(metrics.BSLD),
				d.Wins, d.N, d.SignPValue, d.CILow, d.CIHigh)
		}
	}
	return tw.Flush()
}

// Fig9 reproduces training toward the two alternative job-execution
// metrics, wait and mbsld, on SDSC-SP2 with SJF and F1.
func Fig9(o Options) error {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "Figure 9: training toward other metrics (SDSC-SP2)")
	fmt.Fprintln(o.Out, "(paper: both wait and mbsld converge to 25-50% relative improvement)")
	for _, metric := range []metrics.Metric{metrics.Wait, metrics.MBSLD} {
		for _, polName := range []string{"SJF", "F1"} {
			spec := trainSpec{traceName: "SDSC-SP2", policy: polName, metric: metric}
			_, hist, _, err := o.train(spec)
			if err != nil {
				return err
			}
			printCurve(o.Out, fmt.Sprintf("metric=%s policy=%s:", metric, polName), hist)
		}
	}
	return nil
}

// Fig10 reproduces the trade-off study: models trained on bsld, evaluated
// on bsld, mbsld and util. The paper's claims: mbsld is not sacrificed
// (no starving of long jobs) and util drops by ~1% or less.
func Fig10(o Options) error {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "Figure 10: trade-offs across metrics (trained on bsld)")
	fmt.Fprintln(o.Out, "(paper: mbsld also improves; util impact typically < 1%)")
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  policy\ttrace\tbsld base\tbsld insp\tmbsld base\tmbsld insp\tutil base\tutil insp\n")
	for _, polName := range []string{"SJF", "F1"} {
		for _, traceName := range workload.PaperTraces() {
			spec := trainSpec{traceName: traceName, policy: polName, metric: metrics.BSLD}
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
			bB, bI := res.Boxes(metrics.BSLD)
			mB, mI := res.Boxes(metrics.MBSLD)
			uB, uI := res.Boxes(metrics.Util)
			fmt.Fprintf(tw, "  %s\t%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.2f%%\t%.2f%%\n",
				polName, traceName, bB.Mean, bI.Mean, mB.Mean, mI.Mean, 100*uB.Mean, 100*uI.Mean)
		}
	}
	return tw.Flush()
}

// Fig11 reproduces the backfilling study: training curves with EASY
// backfilling enabled, for bsld and wait on SDSC-SP2 with SJF and F1. The
// paper expects smaller but still positive converged improvements (~10%).
func Fig11(o Options) error {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "Figure 11: training with EASY backfilling enabled (SDSC-SP2)")
	fmt.Fprintln(o.Out, "(paper: converges to ~10% improvement; less headroom than without backfilling)")
	for _, metric := range []metrics.Metric{metrics.BSLD, metrics.Wait} {
		for _, polName := range []string{"SJF", "F1"} {
			spec := trainSpec{traceName: "SDSC-SP2", policy: polName, metric: metric, backfill: true}
			_, hist, _, err := o.train(spec)
			if err != nil {
				return err
			}
			printCurve(o.Out, fmt.Sprintf("metric=%s policy=%s (backfill):", metric, polName), hist)
		}
	}
	return nil
}

// Fig12 reproduces the realistic-settings study: the Slurm multifactor
// priority policy (age + fairshare + job attribute + partition factors)
// with backfilling, inspected by SchedInspector, on the SDSC-SP2-like trace
// (whose generator assigns users and queues).
func Fig12(o Options) error {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "Figure 12: SchedInspector working with Slurm multifactor + backfilling (SDSC-SP2)")
	fmt.Fprintln(o.Out, "(paper: 24.7% better bsld, 0.49% utilization reduction)")
	spec := trainSpec{traceName: "SDSC-SP2", policy: "Slurm", metric: metrics.BSLD, backfill: true}
	trainer, hist, tr, err := o.train(spec)
	if err != nil {
		return err
	}
	printCurve(o.Out, "Slurm training:", hist)
	evalCfg, err := o.evalConfig(tr, spec)
	if err != nil {
		return err
	}
	res, err := core.Evaluate(trainer.Inspector(), evalCfg)
	if err != nil {
		return err
	}
	b, i := res.Boxes(metrics.BSLD)
	uB, uI := res.Boxes(metrics.Util)
	fmt.Fprintf(o.Out, "  bsld: base %.1f vs inspected %.1f (%+.1f%%)\n",
		b.Mean, i.Mean, 100*res.MeanImprovement(metrics.BSLD))
	fmt.Fprintf(o.Out, "  util: base %.2f%% vs inspected %.2f%% (%+.2f%%)\n",
		100*uB.Mean, 100*uI.Mean, 100*(uI.Mean-uB.Mean))
	return nil
}

// Fig13 reproduces the "what SchedInspector learns" analysis: train on
// [SJF, bsld, SDSC-SP2], replay the whole trace with the trained model, and
// compare the CDFs of each input feature over rejected samples vs all
// samples. A rejected-CDF rising faster at low x means the model rejects
// more often when that feature is small.
func Fig13(o Options) error {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "Figure 13: CDFs of input features, rejected vs total samples (SJF, SDSC-SP2, bsld)")
	fmt.Fprintln(o.Out, "(paper: rejects short-waiting, long, wide jobs; queue delays have a hard cap)")
	spec := trainSpec{traceName: "SDSC-SP2", policy: "SJF", metric: metrics.BSLD}
	trainer, _, tr, err := o.train(spec)
	if err != nil {
		return err
	}
	cfg, err := o.evalConfig(tr, spec)
	if err != nil {
		return err
	}
	img, err := core.ReplayWhole(trainer.Inspector(), cfg)
	if err != nil {
		return err
	}
	flight, err := explain.ReadFTrace(bytes.NewReader(img))
	if err != nil {
		return err
	}
	return explain.WriteFeatureCDFs(o.Out, flight.FeatureCDFs())
}
