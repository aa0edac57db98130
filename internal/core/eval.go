package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"schedinspector/internal/metrics"
	"schedinspector/internal/obs"
	"schedinspector/internal/rollout"
	"schedinspector/internal/sched"
	"schedinspector/internal/sim"
	"schedinspector/internal/stats"
	"schedinspector/internal/workload"
)

// EvalConfig parameterizes test-time evaluation (§4.4: 50 random sequences
// of 256 consecutive jobs sampled from the testing 80% of the trace).
type EvalConfig struct {
	Trace  *workload.Trace
	Policy sched.Policy
	Metric metrics.Metric

	Backfill      bool
	Greedy        bool    // use argmax decisions instead of the default stochastic policy
	Sequences     int     // number of sampled sequences (50)
	SeqLen        int     // jobs per sequence (256)
	TestFrom      float64 // fraction of the trace where the test region starts (0.2)
	Seed          int64
	MaxInterval   float64
	MaxRejections int

	// Workers fans the sequences out over this many goroutines (0 = one
	// per CPU). Results are independent of the worker count: each sequence
	// draws from a private RNG stream derived from (Seed, index) and the
	// summaries are reduced in index order.
	Workers int

	// Metrics, when non-nil, receives worker-utilization and per-sequence
	// latency observations (see NewRolloutMetrics).
	Metrics *RolloutMetrics

	// Flight, when non-nil, attaches the decision flight recorder: an
	// "eval" span roots one span per episode, and every inspector decision
	// records one explain record (Epoch 0; Traj is the episode slot —
	// inspected arms occupy slots Sequences..2*Sequences-1).
	Flight *obs.TraceRing
}

func (c EvalConfig) withDefaults() EvalConfig {
	if c.Sequences == 0 {
		c.Sequences = 50
	}
	if c.SeqLen == 0 {
		c.SeqLen = 256
	}
	if c.TestFrom == 0 {
		c.TestFrom = 0.2
	}
	if c.MaxInterval == 0 {
		c.MaxInterval = sim.DefaultMaxInterval
	}
	if c.MaxRejections == 0 {
		c.MaxRejections = sim.DefaultMaxRejections
	}
	if c.Workers == 0 {
		c.Workers = rollout.ResolveWorkers(0)
	}
	return c
}

// validate rejects configurations that zero-defaulting would otherwise
// silently accept; like TrainConfig.validate it runs after withDefaults.
func (c EvalConfig) validate() error {
	switch {
	case c.Sequences < 1:
		return fmt.Errorf("core: EvalConfig.Sequences = %d, must be >= 1 (0 means the default 50)", c.Sequences)
	case c.SeqLen < 1:
		return fmt.Errorf("core: EvalConfig.SeqLen = %d, must be >= 1 (0 means the default 256)", c.SeqLen)
	case !(c.TestFrom >= 0 && c.TestFrom < 1):
		return fmt.Errorf("core: EvalConfig.TestFrom = %v, must be in [0, 1) (0 means the default 0.2)", c.TestFrom)
	case c.MaxInterval < 0 || math.IsNaN(c.MaxInterval):
		return fmt.Errorf("core: EvalConfig.MaxInterval = %v, must be positive (0 means the default %g)",
			c.MaxInterval, sim.DefaultMaxInterval)
	case c.MaxRejections < 0:
		return fmt.Errorf("core: EvalConfig.MaxRejections = %d, must be >= 1 (0 means the default %d)",
			c.MaxRejections, sim.DefaultMaxRejections)
	case c.Workers < 0:
		return fmt.Errorf("core: EvalConfig.Workers = %d, must be >= 0 (0 means one per CPU)", c.Workers)
	}
	return nil
}

// EvalResult holds per-sequence summaries for the base scheduler and the
// SchedInspector-enabled counterpart, plus rejection accounting.
type EvalResult struct {
	Base []metrics.Summary // one per sampled sequence
	Insp []metrics.Summary

	Inspections int
	Rejections  int
}

// Values extracts the per-sequence values of metric m for box plotting.
func Values(sums []metrics.Summary, m metrics.Metric) []float64 {
	out := make([]float64, len(sums))
	for i, s := range sums {
		out[i] = s.Of(m)
	}
	return out
}

// Boxes returns box-and-whisker summaries of the base and inspected runs on
// metric m — the Figure 8/10/12 presentation.
func (r EvalResult) Boxes(m metrics.Metric) (base, insp stats.Box) {
	return stats.Summarize(Values(r.Base, m)), stats.Summarize(Values(r.Insp, m))
}

// MeanImprovement returns the relative improvement of the mean metric value
// (positive = inspector wins).
func (r EvalResult) MeanImprovement(m metrics.Metric) float64 {
	base := stats.Mean(Values(r.Base, m))
	insp := stats.Mean(Values(r.Insp, m))
	return metrics.Improvement(m, summaryWith(m, base), summaryWith(m, insp))
}

// summaryWith builds a Summary carrying v in metric m's slot.
func summaryWith(m metrics.Metric, v float64) metrics.Summary {
	var s metrics.Summary
	switch m {
	case metrics.BSLD:
		s.AvgBSLD = v
	case metrics.Wait:
		s.AvgWait = v
	case metrics.MBSLD:
		s.MaxBSLD = v
	case metrics.Util:
		s.Util = v
	}
	return s
}

// Compare runs a paired statistical comparison of the base and inspected
// per-sequence values of metric m: mean delta (positive = inspector wins),
// a 95% bootstrap confidence interval, and a two-sided sign test. For
// maximized metrics the sign convention flips so positive still means the
// inspector won.
func (r EvalResult) Compare(m metrics.Metric, seed int64) stats.PairedDelta {
	base := Values(r.Base, m)
	insp := Values(r.Insp, m)
	if !m.Minimize() {
		base, insp = insp, base
	}
	return stats.ComparePaired(base, insp, 0.95, 2000, rand.New(rand.NewSource(seed)))
}

// RejectionRatio returns rejections/inspections over all evaluated
// sequences.
func (r EvalResult) RejectionRatio() float64 {
	if r.Inspections == 0 {
		return 0
	}
	return float64(r.Rejections) / float64(r.Inspections)
}

// Evaluate schedules cfg.Sequences randomly sampled test sequences twice —
// with the base policy alone and with the inspector on top — and returns
// the paired summaries. Both arms of every sequence are submitted to the
// rollout driver as one batch of 2*Sequences episodes: the uninspected arms
// run straight through, while the inspected arms step concurrently with the
// inspector's policy forwarded once per decision wave. Every sequence draws
// its window start and the inspector's sampled actions from a private RNG
// stream derived from (Seed, index), and summaries are reduced in index
// order, so the result is identical for any worker count and wave
// composition.
//
// The inspector runs in stochastic mode by default (inference mirrors
// training, §3.2); set cfg.Greedy for argmax decisions. A nil inspector
// evaluates the base policy against itself (useful for harness plumbing
// tests).
func Evaluate(insp *Inspector, cfg EvalConfig) (EvalResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Trace == nil || cfg.Policy == nil {
		return EvalResult{}, fmt.Errorf("core: Evaluate needs Trace and Policy")
	}
	if err := cfg.validate(); err != nil {
		return EvalResult{}, err
	}
	if err := cfg.Trace.Validate(); err != nil {
		return EvalResult{}, fmt.Errorf("core: %w", err)
	}
	lo := cfg.Trace.Split(cfg.TestFrom)
	hi := cfg.Trace.Len() - cfg.SeqLen + 1
	if hi <= lo {
		// test region too small; fall back to the whole trace
		lo = 0
	}
	if hi < 1 {
		return EvalResult{}, fmt.Errorf("core: trace has %d jobs, need at least SeqLen=%d",
			cfg.Trace.Len(), cfg.SeqLen)
	}

	n := cfg.Sequences
	workers := cfg.Workers
	if workers > n {
		workers = n
	}
	// Slots 0..n-1 are the uninspected arms, n..2n-1 the inspected ones.
	// Concurrent episodes each need a private stateful-policy instance; an
	// uncloneable one forces the driver's sequential mode.
	pols, ok := rollout.PolicyClones(cfg.Policy, 2*n)
	if !ok {
		workers = 1
	}
	pol := func(slot int) sched.Policy {
		if len(pols) > 1 {
			return pols[slot]
		}
		return pols[0]
	}

	rngs := make([]*rand.Rand, 2*n)
	episodes := make([]rollout.Episode, 2*n)
	mkCfg := func(slot int) sim.Config {
		return sim.Config{
			MaxProcs:      cfg.Trace.MaxProcs,
			Policy:        pol(slot),
			Backfill:      cfg.Backfill,
			MaxInterval:   cfg.MaxInterval,
			MaxRejections: cfg.MaxRejections,
			NoValidate:    true, // windows of the trace validated above
		}
	}
	for i := 0; i < n; i++ {
		// The sequence's stream draws the window start first; the remainder
		// drives the inspected arm's action sampling.
		rng := streamRNG(cfg.Seed, streamEval, uint64(i))
		start := lo + rng.Intn(hi-lo)
		rngs[n+i] = rng
		episodes[i] = rollout.Episode{Start: start, Cfg: mkCfg(i)}
		episodes[n+i] = rollout.Episode{Start: start, Cfg: mkCfg(n + i), Interactive: insp != nil}
	}
	rollCfg := rollout.Config{Trace: cfg.Trace, SeqLen: cfg.SeqLen, Workers: workers}
	var sampler *waveSampler
	if insp != nil {
		sampler = newWaveSampler(insp.Clone(nil), rngs, cfg.Greedy, false)
		rollCfg.NewDecide = sampler.worker
	}
	var evalSpan obs.Span
	if cfg.Flight != nil {
		evalID := obs.DeriveSpanID(uint64(cfg.Seed), streamEval)
		evalSpan = obs.StartSpan("eval", evalID, 0, 0)
		rollCfg.Ring = cfg.Flight
		rollCfg.SpanRoot = evalID
		if insp != nil {
			cfg.Flight.SetMeta(insp.Mode.FeatureNames(), insp.Mode.String(), cfg.MaxRejections)
			sampler.explainTo(cfg.Flight, 0, cfg.MaxRejections)
		}
	}
	outcomes, rep, err := rollout.Run(episodes, rollCfg)
	cfg.Metrics.observeRollout(workers, rep.Busy.Seconds(), rep.Wall.Seconds())
	if cfg.Metrics != nil {
		for i := 0; i < n; i++ {
			cfg.Metrics.TrajectorySeconds.Observe(rep.EpisodeSeconds[i] + rep.EpisodeSeconds[n+i])
		}
	}
	if err != nil {
		return EvalResult{}, err
	}

	var out EvalResult
	out.Base = make([]metrics.Summary, 0, n)
	out.Insp = make([]metrics.Summary, 0, n)
	for i := 0; i < n; i++ {
		out.Base = append(out.Base, outcomes[i].Summary)
		out.Insp = append(out.Insp, outcomes[n+i].Summary)
		out.Inspections += outcomes[n+i].Inspections
		out.Rejections += outcomes[n+i].Rejections
	}
	if cfg.Flight != nil {
		evalSpan.Attrs = append(evalSpan.Attrs,
			obs.Attr{Key: "sequences", Num: float64(n)},
			obs.Attr{Key: "inspections", Num: float64(out.Inspections)},
			obs.Attr{Key: "rejections", Num: float64(out.Rejections)},
		)
		evalSpan.End(0)
		cfg.Flight.EmitSpan(&evalSpan)
	}
	return out, nil
}

// ReplayWhole schedules the entire trace under the base policy with the
// inspector on top, as §5 does ("used the trained model to schedule the
// whole SDSC-SP2 job trace from beginning to the end"), and returns the
// run's flight record as a .ftrace image: one explain record per decision
// under a header naming the inspector's features, for explain.ReadFTrace.
// It is Evaluate over one sequence spanning the trace, so cfg's Sequences,
// SeqLen and Flight are overridden.
func ReplayWhole(insp *Inspector, cfg EvalConfig) ([]byte, error) {
	if cfg.Trace == nil {
		return nil, fmt.Errorf("core: ReplayWhole needs Trace and Policy")
	}
	var img bytes.Buffer
	ring := obs.NewTraceRing(0)
	ring.SetSink(&img)
	cfg.Sequences, cfg.SeqLen, cfg.Flight = 1, cfg.Trace.Len(), ring
	if _, err := Evaluate(insp, cfg); err != nil {
		return nil, err
	}
	if err := ring.Flush(); err != nil {
		return nil, fmt.Errorf("core: replay flight record: %w", err)
	}
	if n := ring.Oversized(); n > 0 {
		return nil, fmt.Errorf("core: replay flight record dropped %d oversize records", n)
	}
	return img.Bytes(), nil
}
