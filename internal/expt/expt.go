// Package expt implements the paper's evaluation section: every table and
// figure of "SchedInspector" (HPDC '22) has a function here that regenerates
// it against the synthetic workload substitutes. The cmd/expreport binary
// and the repository's root benchmarks are thin wrappers over this package.
//
// Absolute numbers differ from the paper (our substrate is a calibrated
// synthetic workload, not the archive logs), but the shapes the paper
// claims — who wins, roughly by how much, where the approach fails (FCFS) —
// are asserted by the test suite and visible in every report.
package expt

import (
	"fmt"
	"io"
	"text/tabwriter"

	"schedinspector/internal/core"
	"schedinspector/internal/metrics"
	"schedinspector/internal/sched"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

// Options scales the experiments. The zero value takes report defaults
// (close to the paper's setup but sized for minutes, not hours); the Tiny
// preset is used by benchmarks and smoke tests.
type Options struct {
	Jobs          int   // jobs per generated trace (default 20000)
	Epochs        int   // training epochs (default 25)
	Batch         int   // trajectories per epoch (default 40; paper 100)
	SeqLen        int   // jobs per training trajectory (default 128)
	EvalSequences int   // sampled test sequences (default 30; paper 50)
	EvalSeqLen    int   // jobs per test sequence (default 256)
	Seed          int64 // base RNG seed
	Workers       int   // rollout fan-out for training and evaluation (0 = one per CPU)
	Out           io.Writer
	Verbose       bool // print every training epoch instead of a summary curve
}

func (o Options) withDefaults() Options {
	if o.Jobs == 0 {
		o.Jobs = 20000
	}
	if o.Epochs == 0 {
		o.Epochs = 25
	}
	if o.Batch == 0 {
		o.Batch = 40
	}
	if o.SeqLen == 0 {
		o.SeqLen = 128
	}
	if o.EvalSequences == 0 {
		o.EvalSequences = 30
	}
	if o.EvalSeqLen == 0 {
		o.EvalSeqLen = 256
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	return o
}

// Scale names the options' training and evaluation scale, defaults
// applied: what expreport prints in each block's header.
func (o Options) Scale() string {
	o = o.withDefaults()
	return fmt.Sprintf("batch %d, %d epochs, %d eval seqs", o.Batch, o.Epochs, o.EvalSequences)
}

// Tiny returns options small enough for unit tests and testing.B bench
// iterations (seconds per experiment).
func Tiny(out io.Writer) Options {
	return Options{
		Jobs: 3000, Epochs: 3, Batch: 6, SeqLen: 64,
		EvalSequences: 4, EvalSeqLen: 64, Seed: 42, Out: out,
	}
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	Name  string // e.g. "fig4"
	Title string // what the paper shows there
	Run   func(Options) error
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Motivating example metrics (Table 1 / Figure 1)", Table1},
		{"table2", "Job trace statistics (Table 2)", Table2},
		{"fig4", "Training curves: SJF and F1 on four traces (Figure 4)", Fig4},
		{"fig5", "Feature-building ablation (Figure 5)", Fig5},
		{"fig6", "Reward-function ablation (Figure 6)", Fig6},
		{"fig7", "Other base policies + rejection ratios (Figure 7)", Fig7},
		{"fig8", "Test-time performance on four traces (Figure 8)", Fig8},
		{"table4", "Cross-trace generalization (Table 4)", Table4},
		{"fig9", "Other metrics: wait and mbsld (Figure 9)", Fig9},
		{"fig10", "Metric trade-offs: bsld vs mbsld vs util (Figure 10)", Fig10},
		{"fig11", "Training with backfilling enabled (Figure 11)", Fig11},
		{"table5", "System utilization impact (Table 5)", Table5},
		{"fig12", "Slurm multifactor scheduler (Figure 12)", Fig12},
		{"fig13", "What SchedInspector learns: feature CDFs (Figure 13)", Fig13},
		{"cost", "Computational cost: training and inference (§4.6)", Cost},
		{"ablate-interval", "Extension: MAX_INTERVAL sweep", AblateInterval},
		{"ablate-cap", "Extension: MAX_REJECTION_TIMES sweep", AblateRejectionCap},
		{"ablate-critic", "Extension: actor-critic vs REINFORCE variance", AblateCritic},
		{"ablate-backfill", "Extension: no backfilling vs EASY", AblateBackfillVariant},
	}
}

// ByName returns the experiment with the given name.
func ByName(name string) (Experiment, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("expt: unknown experiment %q", name)
}

// trace builds one of the four paper workloads at the configured size.
func (o Options) trace(name string) (*workload.Trace, error) {
	return workload.ByName(name, o.Jobs, o.Seed)
}

// trainSpec fully describes one training configuration. A zero field
// takes its default, so every experiment that means "the SDSC-SP2 SJF bsld
// model" names the same spec.
type trainSpec struct {
	traceName     string
	policy        string // sched.ByName abbreviation, or "Slurm"
	metric        metrics.Metric
	reward        core.RewardKind
	features      core.FeatureMode
	backfill      bool
	maxInterval   float64 // retry cut-off (0 = sim.DefaultMaxInterval)
	maxRejections int     // per-job rejection cap (0 = sim.DefaultMaxRejections)
	noCritic      bool    // train without the value network
}

// label names the spec in -v output: its trace, policy and metric, then
// each field that differs from the default run. Simulator defaults are
// spelled as zero (memoKey) before it is called.
func (s trainSpec) label() string {
	l := fmt.Sprintf("%s %s %v", s.traceName, s.policy, s.metric)
	if s.reward != core.PercentageReward {
		l += " reward=" + s.reward.String()
	}
	if s.features != core.ManualFeatures {
		l += " features=" + s.features.String()
	}
	if s.backfill {
		l += " easy"
	}
	if s.maxInterval != 0 {
		l += fmt.Sprintf(" interval=%gs", s.maxInterval)
	}
	if s.maxRejections != 0 {
		l += fmt.Sprintf(" cap=%d", s.maxRejections)
	}
	if s.noCritic {
		l += " no-critic"
	}
	return l
}

// cachedTrain memoizes one completed training run. Several experiments
// train identical configurations (e.g. Figures 4, 8 and 10 and Table 5 all
// need [SJF|F1, trace, bsld] models); experiments run sequentially, so a
// plain package-level map is safe and cuts the full-report wall clock by
// more than half.
type cachedTrain struct {
	trainer *core.Trainer
	hist    []core.EpochStats
	trace   *workload.Trace
}

// trainKey is everything a training run's bits depend on. Workers is not
// in it: results are bit-identical at any worker count.
type trainKey struct {
	spec                        trainSpec
	jobs, epochs, batch, seqLen int
	seed                        int64
}

var trainMemo = map[trainKey]cachedTrain{}

func (o Options) memoKey(spec trainSpec) trainKey {
	// A default spelled out is the default: a sweep's default arm shares
	// the model every other experiment trains.
	if spec.maxInterval == sim.DefaultMaxInterval {
		spec.maxInterval = 0
	}
	if spec.maxRejections == sim.DefaultMaxRejections {
		spec.maxRejections = 0
	}
	return trainKey{spec, o.Jobs, o.Epochs, o.Batch, o.SeqLen, o.Seed}
}

// train runs one training configuration (memoized) and returns the trainer
// holding the trained inspector plus the per-epoch history.
func (o Options) train(spec trainSpec) (*core.Trainer, []core.EpochStats, *workload.Trace, error) {
	key := o.memoKey(spec)
	if c, ok := trainMemo[key]; ok {
		return c.trainer, c.hist, c.trace, nil
	}
	trainer, hist, tr, err := o.trainUncached(spec)
	if err == nil {
		trainMemo[key] = cachedTrain{trainer, hist, tr}
	}
	return trainer, hist, tr, err
}

func (o Options) trainUncached(spec trainSpec) (*core.Trainer, []core.EpochStats, *workload.Trace, error) {
	tr, err := o.trace(spec.traceName)
	if err != nil {
		return nil, nil, nil, err
	}
	pol, err := sched.ForTrace(spec.policy, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	trainer, err := core.NewTrainer(core.TrainConfig{
		Trace: tr, Policy: pol, Metric: spec.metric,
		RewardKind: spec.reward, FeatureMode: spec.features, Backfill: spec.backfill,
		MaxInterval: spec.maxInterval, MaxRejections: spec.maxRejections, NoCritic: spec.noCritic,
		SeqLen: o.SeqLen, Batch: o.Batch, Seed: o.Seed + 1, Workers: o.Workers,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	var cb func(core.EpochStats)
	if o.Verbose {
		label := o.memoKey(spec).spec.label()
		cb = func(st core.EpochStats) {
			fmt.Fprintf(o.Out, "    [%s] epoch %3d: improvement %9.2f (%.1f%%), rejection ratio %.2f\n",
				label, st.Epoch, st.MeanImprovement, 100*st.MeanPctImprovement, st.RejectionRatio)
		}
	}
	hist, err := trainer.Train(o.Epochs, cb)
	if err != nil {
		return nil, nil, nil, err
	}
	return trainer, hist, tr, nil
}

// evalConfig builds the evaluation configuration for a trained spec.
func (o Options) evalConfig(tr *workload.Trace, spec trainSpec) (core.EvalConfig, error) {
	pol, err := sched.ForTrace(spec.policy, tr)
	if err != nil {
		return core.EvalConfig{}, err
	}
	return core.EvalConfig{
		Trace: tr, Policy: pol, Metric: spec.metric, Backfill: spec.backfill,
		MaxInterval: spec.maxInterval, MaxRejections: spec.maxRejections,
		Sequences: o.EvalSequences, SeqLen: o.EvalSeqLen, Seed: o.Seed + 2,
		Workers: o.Workers,
	}, nil
}

// evaluate trains spec (memoized) and evaluates its inspector against the
// base policy on the held-out part of its trace.
func (o Options) evaluate(spec trainSpec) (core.EvalResult, []core.EpochStats, error) {
	trainer, hist, tr, err := o.train(spec)
	if err != nil {
		return core.EvalResult{}, nil, err
	}
	cfg, err := o.evalConfig(tr, spec)
	if err != nil {
		return core.EvalResult{}, nil, err
	}
	res, err := core.Evaluate(trainer.Inspector(), cfg)
	return res, hist, err
}

// converged returns the mean of the last k epochs' value, the number the
// paper quotes as "converges to".
func converged(hist []core.EpochStats, f func(core.EpochStats) float64, k int) float64 {
	if len(hist) == 0 {
		return 0
	}
	if k > len(hist) {
		k = len(hist)
	}
	var s float64
	for _, h := range hist[len(hist)-k:] {
		s += f(h)
	}
	return s / float64(k)
}

// printCurve renders a training curve compactly: roughly 10 sampled epochs.
func printCurve(w io.Writer, label string, hist []core.EpochStats) {
	fmt.Fprintf(w, "  %s\n", label)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "    epoch\timprovement\tpct\trej.ratio\n")
	step := (len(hist) + 9) / 10
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(hist); i += step {
		h := hist[i]
		fmt.Fprintf(tw, "    %d\t%.2f\t%.1f%%\t%.2f\n", h.Epoch, h.MeanImprovement, 100*h.MeanPctImprovement, h.RejectionRatio)
	}
	last := hist[len(hist)-1]
	if (len(hist)-1)%step != 0 {
		fmt.Fprintf(tw, "    %d\t%.2f\t%.1f%%\t%.2f\n", last.Epoch, last.MeanImprovement, 100*last.MeanPctImprovement, last.RejectionRatio)
	}
	tw.Flush()
	fmt.Fprintf(w, "    converged: improvement %.2f (%.1f%%), rejection ratio %.2f\n",
		converged(hist, func(h core.EpochStats) float64 { return h.MeanImprovement }, 5),
		100*converged(hist, func(h core.EpochStats) float64 { return h.MeanPctImprovement }, 5),
		converged(hist, func(h core.EpochStats) float64 { return h.RejectionRatio }, 5))
}
