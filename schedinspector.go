// Package schedinspector is the public API of a from-scratch Go
// reproduction of "SchedInspector: A Batch Job Scheduling Inspector Using
// Reinforcement Learning" (Zhang, Dai, Xie — HPDC '22).
//
// SchedInspector sits on top of an unchanged base batch-job scheduler
// (FCFS, SJF, F1, Slurm multifactor, ...). At every scheduling point the
// base policy picks the top-priority job; the inspector observes runtime
// features (cluster availability, queue delays, the job's attributes) and
// either lets the decision proceed or rejects it, returning the job to the
// waiting queue so the base policy retries at the next scheduling point.
// The inspector is a small actor-critic MLP trained with PPO against a
// simulated cluster; its reward is the percentage improvement of the chosen
// metric over an uninspected run of the same job sequence.
//
// Typical use:
//
//	trace := schedinspector.GenerateTrace("SDSC-SP2", 20000, 42)
//	trainer, _ := schedinspector.NewTrainer(schedinspector.TrainConfig{
//		Trace:  trace,
//		Policy: schedinspector.SJF(),
//		Metric: schedinspector.BSLD,
//	})
//	trainer.Train(40, nil)
//	res, _ := schedinspector.Evaluate(trainer.Inspector(), schedinspector.EvalConfig{
//		Trace: trace, Policy: schedinspector.SJF(), Metric: schedinspector.BSLD,
//	})
//	fmt.Printf("bsld improvement: %.1f%%\n", 100*res.MeanImprovement(schedinspector.BSLD))
//
// The implementation lives in internal packages: workload (traces, SWF,
// synthetic generators), sim (the cluster simulator), sched (base
// policies), nn and rl (the learning machinery), core (the inspector), and
// stats/metrics (measurement).
package schedinspector

import (
	"context"
	"io"
	"math/rand"

	"schedinspector/internal/core"
	"schedinspector/internal/dist"
	"schedinspector/internal/metrics"
	"schedinspector/internal/obs"
	"schedinspector/internal/sched"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

// Re-exported types. See the internal packages for full documentation.
type (
	// Job is one batch job of a trace.
	Job = workload.Job
	// Trace is a job trace bound to a cluster size.
	Trace = workload.Trace
	// TraceStats summarizes a trace (Table 2 of the paper).
	TraceStats = workload.Stats

	// Metric is a job execution performance metric (bsld, wait, mbsld, util).
	Metric = metrics.Metric
	// Summary aggregates all metrics over one scheduled sequence.
	Summary = metrics.Summary
	// JobResult is the scheduling outcome of a single job.
	JobResult = metrics.JobResult

	// Policy is a base scheduling policy (lower score runs first).
	Policy = sched.Policy
	// Slurm is the multifactor priority policy of §4.5.
	Slurm = sched.Slurm

	// SimConfig parameterizes one simulation run.
	SimConfig = sim.Config
	// SimResult is the outcome of one simulation run.
	SimResult = sim.Result
	// SimState is the scheduling context an inspector observes.
	SimState = sim.State
	// SimEnv is the steppable simulator core: Reset starts an episode and
	// yields at every scheduling decision; Step answers it. Simulate is a
	// thin loop over it.
	SimEnv = sim.Env
	// SimSnapshot is a deep copy of a SimEnv's state for checkpoint/branch
	// workloads (SimEnv.Snapshot / SimEnv.Restore).
	SimSnapshot = sim.Snapshot

	// Inspector is a SchedInspector model.
	Inspector = core.Inspector
	// TrainConfig parameterizes training (§4.1 defaults apply).
	TrainConfig = core.TrainConfig
	// Trainer drives PPO training of an inspector.
	Trainer = core.Trainer
	// EpochStats reports one training epoch (the training-curve data).
	EpochStats = core.EpochStats
	// EvalConfig parameterizes test-time evaluation.
	EvalConfig = core.EvalConfig
	// EvalResult holds paired base/inspected per-sequence summaries.
	EvalResult = core.EvalResult
	// FeatureMode selects the feature-building mechanism (§3.3).
	FeatureMode = core.FeatureMode
	// RewardKind selects the reward function (§3.4).
	RewardKind = core.RewardKind
	// Normalizer holds the feature scaling constants of a trace.
	Normalizer = core.Normalizer
	// Recorder logs inspection decisions for the §5 analysis.
	Recorder = core.Recorder

	// Tracer records structured simulator events (set SimConfig.Tracer).
	Tracer = obs.Tracer
	// TraceEvent is one simulator event in a Tracer's buffer or JSONL sink.
	TraceEvent = obs.Event
	// Span is one completed trace span (run → epoch → episode → decision).
	Span = obs.Span
	// SpanID identifies a span; IDs derive deterministically from stable
	// tags (DeriveSpanID), so they match at any rollout worker count.
	SpanID = obs.SpanID
	// ExplainRecord is one fully-instrumented inspector decision: the
	// feature vector, logits, action distribution, verdict and the
	// scheduling context around it.
	ExplainRecord = obs.ExplainRecord
	// TraceRing is the decision flight recorder: spans, explain records and
	// runtime samples encoded into an arena of equal-size slots with zero
	// steady-state allocations. Attach via TrainConfig.Flight or
	// EvalConfig.Flight; stream .ftrace bytes with SetSink and render them
	// as JSONL with schedinspect explain -convert.
	TraceRing = obs.TraceRing
	// MetricsRegistry renders counters/gauges/histograms in Prometheus
	// text exposition format (the substrate behind inspectord's /metrics).
	MetricsRegistry = obs.Registry
	// TrainLogger receives per-epoch training telemetry
	// (set TrainConfig.Logger).
	TrainLogger = core.TrainLogger
	// RolloutMetrics publishes rollout-engine gauges and histograms
	// (worker utilization, trajectory latency)
	// into a MetricsRegistry. Set TrainConfig.Metrics / EvalConfig.Metrics.
	RolloutMetrics = core.RolloutMetrics

	// TrainerCheckpoint is a full snapshot of a training run — weights,
	// optimizer moments, normalizer, epoch and seed — sufficient to resume
	// bit-identically (Trainer.Resume) or to serve directly
	// (TrainerCheckpoint.Inspector).
	TrainerCheckpoint = core.TrainerCheckpoint
	// CheckpointConfig enables periodic durable checkpoints during
	// Trainer.TrainCtx.
	CheckpointConfig = core.CheckpointConfig

	// DistOptions parameterizes the DD-PPO-style multi-process engine's
	// transport and telemetry (see TrainDistributed).
	DistOptions = dist.Options
	// DistMetrics publishes per-epoch exchange latency/volume, straggler
	// wait and peer-failure counters into a MetricsRegistry.
	DistMetrics = dist.Metrics
)

// ErrInterrupted is returned (wrapped) by Trainer.TrainCtx when training
// stopped early because its context was canceled; a final checkpoint has
// been written when checkpointing is configured.
var ErrInterrupted = core.ErrInterrupted

// Distributed-training errors: a dead/stalled/misconfigured peer matches
// ErrDistPeer (surviving workers fail typed instead of hanging), and a
// post-apply replica digest mismatch matches ErrDistDiverged.
var (
	ErrDistPeer     = dist.ErrPeer
	ErrDistDiverged = dist.ErrDiverged
)

// TrainDistributed runs epochs of coordinator-less multi-process training:
// every worker process calls it with an identically-configured Trainer
// (TrainConfig.World, Rank and Peers set; only Rank differs), rolls out
// its shard of each epoch's trajectory batch, computes the PPO update's
// gradients over that shard and all-reduces them with its peers in a
// fixed order — so every replica's weights and Adam state stay
// bit-identical to a single-process Trainer.Train on the same seed and
// config. With World <= 1 it is
// exactly Trainer.TrainCtx. Checkpointing and interruption follow the
// TrainCtx contract; periodic saves are written by rank 0 only.
func TrainDistributed(ctx context.Context, t *Trainer, epochs int, ck CheckpointConfig, opt DistOptions, cb func(EpochStats)) ([]EpochStats, error) {
	return dist.Train(ctx, t, epochs, ck, opt, cb)
}

// NewDistMetrics registers the distributed-engine metric family on r.
func NewDistMetrics(r *MetricsRegistry) *DistMetrics { return dist.NewMetrics(r) }

// Metrics.
const (
	// BSLD is the average bounded job slowdown (minimize; the paper's default).
	BSLD = metrics.BSLD
	// Wait is the average job waiting time (minimize).
	Wait = metrics.Wait
	// MBSLD is the maximal bounded job slowdown (minimize).
	MBSLD = metrics.MBSLD
	// Util is the system utilization (maximize).
	Util = metrics.Util
)

// Feature modes (§3.3).
const (
	// ManualFeatures is the paper's engineered feature set.
	ManualFeatures = core.ManualFeatures
	// CompactedFeatures drops the aggregated queue/backfill features.
	CompactedFeatures = core.CompactedFeatures
	// NativeFeatures feeds the raw padded environment state.
	NativeFeatures = core.NativeFeatures
)

// Reward kinds (§3.4).
const (
	// PercentageReward is the paper's default reward.
	PercentageReward = core.PercentageReward
	// NativeReward is the raw metric difference.
	NativeReward = core.NativeReward
	// WinLossReward only scores the sign of the difference.
	WinLossReward = core.WinLossReward
)

// Simulator hyperparameters (§4.1).
const (
	// DefaultMaxInterval is the retry cut-off after a rejection (600 s).
	DefaultMaxInterval = sim.DefaultMaxInterval
	// DefaultMaxRejections caps rejections per job (72).
	DefaultMaxRejections = sim.DefaultMaxRejections
)

// Base scheduling policies (Table 3).
var (
	// FCFS is first come, first served.
	FCFS = sched.FCFS
	// LCFS is last come, first served.
	LCFS = sched.LCFS
	// SJF is shortest (estimated runtime) job first.
	SJF = sched.SJF
	// SQF is smallest resource request first.
	SQF = sched.SQF
	// SAF is smallest estimated area first.
	SAF = sched.SAF
	// SRF is smallest estimated ratio first.
	SRF = sched.SRF
	// F1 is the learned heuristic of Carastan-Santos & de Camargo (SC'17).
	F1 = sched.F1
)

// PolicyByName returns a Table 3 policy by abbreviation
// ("FCFS", "LCFS", "SJF", "SQF", "SAF", "SRF", "F1").
func PolicyByName(name string) (Policy, error) { return sched.ByName(name) }

// NewSlurm builds the Slurm multifactor policy with shares derived from the
// trace (§4.5).
func NewSlurm(t *Trace) *Slurm { return sched.NewSlurm(t) }

// GenerateTrace builds one of the paper's four workloads ("SDSC-SP2",
// "CTC-SP2", "HPC2N", "Lublin") as a calibrated synthetic trace. It panics
// on an unknown name; use workload.ByName for an error-returning variant.
func GenerateTrace(name string, jobs int, seed int64) *Trace {
	t, err := workload.ByName(name, jobs, seed)
	if err != nil {
		panic(err)
	}
	return t
}

// PaperTraces lists the four Table 2 workload names.
func PaperTraces() []string { return workload.PaperTraces() }

// ParseSWF reads a trace in Standard Workload Format.
func ParseSWF(r io.Reader, name string) (*Trace, error) { return workload.ParseSWF(r, name) }

// ParseSWFFile reads an SWF trace from disk, transparently decompressing
// ".gz" files (the format the Parallel Workloads Archive distributes).
func ParseSWFFile(path string) (*Trace, error) { return workload.ParseSWFFile(path) }

// WriteSWF writes a trace in Standard Workload Format.
func WriteSWF(w io.Writer, t *Trace) error { return workload.WriteSWF(w, t) }

// ComputeTraceStats summarizes a trace as Table 2 does.
func ComputeTraceStats(t *Trace) TraceStats { return workload.ComputeStats(t) }

// Simulate schedules a job sequence under cfg and returns the results.
func Simulate(jobs []Job, cfg SimConfig) (SimResult, error) { return sim.Run(jobs, cfg) }

// NewSimEnv returns an empty steppable environment; its Reset starts the
// first episode. A reused env reaches a steady state where full episodes
// allocate nothing.
func NewSimEnv() *SimEnv { return sim.NewEnv() }

// SimulateEnv is Simulate on a caller-owned environment, reusing its
// buffers across calls. The returned result aliases env storage and is
// invalidated by the env's next Reset.
func SimulateEnv(env *SimEnv, jobs []Job, cfg SimConfig) (SimResult, error) {
	return sim.RunEnv(env, jobs, cfg)
}

// NewTrainer builds a PPO trainer for a fresh inspector.
func NewTrainer(cfg TrainConfig) (*Trainer, error) { return core.NewTrainer(cfg) }

// Evaluate schedules sampled test sequences with and without the inspector.
func Evaluate(insp *Inspector, cfg EvalConfig) (EvalResult, error) { return core.Evaluate(insp, cfg) }

// LoadInspectorFile reads a model saved with Inspector.SaveFile, or a
// training checkpoint: both are the same ckpt file format.
func LoadInspectorFile(path string, rng *rand.Rand) (*Inspector, error) {
	return core.LoadServable(path, rng)
}

// LoadTrainerCheckpoint reads one durable checkpoint file, verifying its
// container (magic, version, CRC) and payload before returning.
func LoadTrainerCheckpoint(path string) (*TrainerCheckpoint, error) {
	return core.LoadTrainerCheckpoint(path)
}

// LatestTrainerCheckpoint returns the newest loadable checkpoint in dir
// and its path, falling back past torn or corrupt files.
func LatestTrainerCheckpoint(dir string) (*TrainerCheckpoint, string, error) {
	return core.LatestTrainerCheckpoint(dir)
}

// NormalizerForTrace derives feature scaling constants from a trace, used
// when applying a trained inspector to a different workload (Table 4).
func NormalizerForTrace(t *Trace, metric Metric) Normalizer {
	return core.NormalizerForTrace(t, metric)
}

// ParseMetric converts "bsld", "wait", "mbsld" or "util" into a Metric.
func ParseMetric(s string) (Metric, error) { return metrics.ParseMetric(s) }

// NewTracer returns a simulator event tracer holding the last capacity
// events (a default of 4096 for capacity <= 0). Attach it via
// SimConfig.Tracer; stream JSONL with its SetSink method.
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTraceRing returns a decision flight recorder of the given geometry
// (<= 0 selects the package defaults: 4096 slots starting at 512 bytes;
// slots widen to fit the records they are given).
func NewTraceRing(slots, slotSize int) *TraceRing { return obs.NewTraceRing(slots, slotSize) }

// DeriveSpanID hashes a chain of stable tags into a SpanID using the same
// SplitMix64 discipline as the rollout engine's RNG streams.
func DeriveSpanID(tags ...uint64) SpanID { return obs.DeriveSpanID(tags...) }

// NewRolloutMetrics registers the rollout-engine instruments on r and
// returns the bundle to set on TrainConfig.Metrics or EvalConfig.Metrics.
func NewRolloutMetrics(r *MetricsRegistry) *RolloutMetrics { return core.NewRolloutMetrics(r) }

// NewCSVTrainLogger writes per-epoch training telemetry to w as CSV (one
// header row, then one row per epoch).
func NewCSVTrainLogger(w io.Writer) TrainLogger { return core.NewCSVTrainLogger(w) }

// NewJSONLTrainLogger writes per-epoch training telemetry to w as JSON
// lines.
func NewJSONLTrainLogger(w io.Writer) TrainLogger { return core.NewJSONLTrainLogger(w) }
