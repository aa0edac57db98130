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
// Typical use — generate a trace, train an inspector over a base policy,
// evaluate it on held-out sequences — is the package Example; the other
// Examples simulate a hand-built sequence, read one from SWF, and reload a
// saved model.
//
// The implementation lives in internal packages: workload (traces, SWF,
// synthetic generators), sim (the cluster simulator), sched (base
// policies), nn and rl (the learning machinery), core (the inspector), and
// stats/metrics (measurement).
package schedinspector

import (
	"io"
	"math/rand"

	"schedinspector/internal/core"
	"schedinspector/internal/metrics"
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

	// Metric is a job execution performance metric (bsld, wait, mbsld, util).
	Metric = metrics.Metric

	// Policy is a base scheduling policy (lower score runs first).
	Policy = sched.Policy
	// Slurm is the multifactor priority policy of §4.5.
	Slurm = sched.Slurm

	// SimConfig parameterizes one simulation run.
	SimConfig = sim.Config
	// SimResult is the outcome of one simulation run.
	SimResult = sim.Result
	// SimEvent is one simulator event, handed by value to SimConfig.OnEvent.
	SimEvent = sim.Event

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
)

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

// NewSlurm builds the Slurm multifactor policy with shares derived from the
// trace (§4.5).
func NewSlurm(t *Trace) *Slurm { return sched.NewSlurm(t) }

// GenerateTrace builds one of the paper's four workloads ("SDSC-SP2",
// "CTC-SP2", "HPC2N", "Lublin") as a calibrated synthetic trace with the
// given number of jobs. An unknown name or a negative count is an error.
func GenerateTrace(name string, jobs int, seed int64) (*Trace, error) {
	return workload.ByName(name, jobs, seed)
}

// ParseSWF reads a trace in Standard Workload Format.
func ParseSWF(r io.Reader, name string) (*Trace, error) { return workload.ParseSWF(r, name) }

// Simulate schedules a job sequence under cfg and returns the results.
func Simulate(jobs []Job, cfg SimConfig) (SimResult, error) { return sim.Run(jobs, cfg) }

// NewTrainer builds a PPO trainer for a fresh inspector.
func NewTrainer(cfg TrainConfig) (*Trainer, error) { return core.NewTrainer(cfg) }

// Evaluate schedules sampled test sequences with and without the inspector.
func Evaluate(insp *Inspector, cfg EvalConfig) (EvalResult, error) { return core.Evaluate(insp, cfg) }

// LoadInspectorFile reads a model saved with Inspector.SaveFile, or a
// training checkpoint: both are the same ckpt file format.
func LoadInspectorFile(path string, rng *rand.Rand) (*Inspector, error) {
	return core.LoadServable(path, rng)
}
