package expt

import (
	"fmt"
	"text/tabwriter"

	"schedinspector/internal/core"
	"schedinspector/internal/metrics"
	"schedinspector/internal/sched"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

// Table1 reproduces the motivating example (Figure 1 / Table 1): the two
// hand-built scenarios on a 5-node cluster under SJF, with and without an
// inspector that rejects J0's first decision. One figure-minute is 60 s.
func Table1(o Options) error {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "Table 1: performance metrics of the motivating example")
	fmt.Fprintln(o.Out, "(paper: a-NoInspect 3 / 1.77, a-Inspected 1.53; b-NoInspect 5 / 2.45, b-Inspected 2 / 1.40)")

	caseA := []workload.Job{
		{ID: 1, Submit: 0, Run: 60, Est: 60, Procs: 2},    // Jp
		{ID: 2, Submit: 0, Run: 300, Est: 300, Procs: 3},  // J0
		{ID: 3, Submit: 0, Run: 300, Est: 300, Procs: 2},  // J1
		{ID: 4, Submit: 60, Run: 180, Est: 180, Procs: 3}, // J2
	}
	caseB := []workload.Job{
		{ID: 1, Submit: 0, Run: 180, Est: 180, Procs: 3},  // Jp
		{ID: 2, Submit: 0, Run: 300, Est: 300, Procs: 4},  // J0
		{ID: 3, Submit: 60, Run: 180, Est: 180, Procs: 2}, // J1
	}
	rejectJ0Once := func(s *sim.State) bool { return s.Job.ID == 2 && s.Rejections == 0 }

	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  case\twait (min)\tbsld\n")
	for _, c := range []struct {
		name string
		jobs []workload.Job
		insp sim.Inspector
	}{
		{"Case(a)-NoInspect", caseA, nil},
		{"Case(a)-Inspected", caseA, rejectJ0Once},
		{"Case(b)-NoInspect", caseB, nil},
		{"Case(b)-Inspected", caseB, rejectJ0Once},
	} {
		res, err := sim.Run(c.jobs, sim.Config{MaxProcs: 5, Policy: sched.SJF(), Inspector: c.insp})
		if err != nil {
			return err
		}
		// Metrics exclude the preliminary job Jp (ID 1), as the paper does.
		var keep []metrics.JobResult
		for _, r := range res.Results {
			if r.ID != 1 {
				keep = append(keep, r)
			}
		}
		s := metrics.Compute(keep, 5)
		fmt.Fprintf(tw, "  %s\t%.2f\t%.2f\n", c.name, s.AvgWait/60, s.AvgBSLD)
	}
	return tw.Flush()
}

// Table2 reproduces the trace-statistics table over the synthetic
// substitutes for the archive logs.
func Table2(o Options) error {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "Table 2: job traces in use")
	fmt.Fprintln(o.Out, "(paper: SDSC-SP2 128/1055/6687/11, CTC-SP2 338/379/11277/11, HPC2N 240/538/17024/6, Lublin 256/771/4862/22)")
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  name\tcluster size\tinterval (s)\test_j (s)\tres_j\tjobs\toffered load\n")
	for _, name := range workload.PaperTraces() {
		tr, err := o.trace(name)
		if err != nil {
			return err
		}
		s := workload.ComputeStats(tr)
		fmt.Fprintf(tw, "  %s\t%d\t%.0f\t%.0f\t%.1f\t%d\t%.2f\n",
			name, s.MaxProcs, s.MeanInterval, s.MeanEst, s.MeanProcs, s.Jobs, workload.OfferedLoad(tr))
	}
	return tw.Flush()
}

// Table4 reproduces the cross-trace generalization study: the base SJF
// scheduler on each trace Y, an inspector trained on SDSC-SP2 applied to Y
// (rebinding only the feature normalizer), and an inspector trained on Y
// itself.
func Table4(o Options) error {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "Table 4: SchedInspector generalization across traces (bsld; SJF base)")
	fmt.Fprintln(o.Out, "(paper: SDSC-trained helps every trace; same-trace training helps most)")

	spec := trainSpec{traceName: "SDSC-SP2", policy: "SJF", metric: metrics.BSLD}
	sdscTrainer, _, _, err := o.train(spec)
	if err != nil {
		return err
	}
	sdscModel := sdscTrainer.Inspector()

	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  trace Y\tBase->Y\t'SDSC-SP2'->Y\tY->Y\n")
	for _, name := range workload.PaperTraces() {
		ySpec := trainSpec{traceName: name, policy: "SJF", metric: metrics.BSLD}

		yTrainer, _, tr, err := o.train(ySpec)
		if err != nil {
			return err
		}
		evalCfg, err := o.evalConfig(tr, ySpec)
		if err != nil {
			return err
		}
		cross := sdscModel.WithNormalizer(core.NormalizerForTrace(tr, metrics.BSLD))
		crossRes, err := core.Evaluate(cross, evalCfg)
		if err != nil {
			return err
		}
		ownRes, err := core.Evaluate(yTrainer.Inspector(), evalCfg)
		if err != nil {
			return err
		}
		baseBox, crossBox := crossRes.Boxes(metrics.BSLD)
		_, ownBox := ownRes.Boxes(metrics.BSLD)
		fmt.Fprintf(tw, "  %s\t%.2f\t%.2f\t%.2f\n", name, baseBox.Mean, crossBox.Mean, ownBox.Mean)
	}
	return tw.Flush()
}

// Table5 reproduces the utilization study: system utilization of the base
// SJF and F1 schedulers against their inspected counterparts, with and
// without backfilling, across all four traces.
func Table5(o Options) error {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "Table 5: system utilization with/without SchedInspector")
	fmt.Fprintln(o.Out, "(paper: deltas are ~1% or less in almost all cases)")
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  backfill\ttrace\tpolicy\tBASE util\tINSP util\tdelta\tbsld impr.\n")
	for _, backfill := range []bool{false, true} {
		for _, traceName := range workload.PaperTraces() {
			for _, polName := range []string{"SJF", "F1"} {
				spec := trainSpec{traceName: traceName, policy: polName, metric: metrics.BSLD, backfill: backfill}
				res, _, err := o.evaluate(spec)
				if err != nil {
					return err
				}
				baseU, inspU := res.Boxes(metrics.Util)
				fmt.Fprintf(tw, "  %v\t%s\t%s\t%.2f%%\t%.2f%%\t%+.2f%%\t%+.1f%%\n",
					backfill, traceName, polName,
					100*baseU.Mean, 100*inspU.Mean, 100*(inspU.Mean-baseU.Mean),
					100*res.MeanImprovement(metrics.BSLD))
			}
		}
	}
	return tw.Flush()
}
