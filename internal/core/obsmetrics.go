package core

import "schedinspector/internal/obs"

// RolloutMetrics is the obs instrumentation of the parallel rollout engine.
// Attach one (via TrainConfig.Metrics or EvalConfig.Metrics) to export
// worker utilization and per-trajectory rollout latency through an
// obs.Registry — e.g. mounted at /metrics.
type RolloutMetrics struct {
	// Workers is the effective worker count of the most recent rollout.
	Workers *obs.Gauge
	// WorkerUtilization is busy-time / (workers x wall) of the most recent
	// rollout in [0, 1] — how much of the pool the fan-out actually used.
	WorkerUtilization *obs.Gauge
	// TrajectorySeconds observes each trajectory's share of its rollout
	// workers' time, policy inference included, at any worker count: the
	// baseline arm's rollout.Report.EpisodeSeconds plus the inspected arm's,
	// for the trainer and Evaluate alike.
	TrajectorySeconds *obs.Histogram

	// Unregistered and never incremented: they go when ROADMAP item 1 drops core.basecache_hit_ratio.
	BaselineCacheHits, BaselineCacheMisses *obs.Counter
}

// NewRolloutMetrics registers the rollout metric family on r.
func NewRolloutMetrics(r *obs.Registry) *RolloutMetrics {
	return &RolloutMetrics{
		Workers: r.Gauge("schedinspector_rollout_workers",
			"Effective worker count of the most recent rollout fan-out.", nil),
		WorkerUtilization: r.Gauge("schedinspector_rollout_worker_utilization",
			"Busy-time share of the worker pool during the most recent rollout (0-1).", nil),
		TrajectorySeconds: r.Histogram("schedinspector_rollout_trajectory_seconds",
			"One simulated trajectory's share of its rollout worker's time, policy inference included.", nil, nil),
		BaselineCacheHits:   new(obs.Counter),
		BaselineCacheMisses: new(obs.Counter),
	}
}

// observeRollout publishes one rollout's pool statistics. Nil receivers are
// a no-op so the un-instrumented path costs a single branch.
func (m *RolloutMetrics) observeRollout(workers int, busySec, wallSec float64) {
	if m == nil {
		return
	}
	m.Workers.Set(float64(workers))
	if wallSec > 0 && workers > 0 {
		m.WorkerUtilization.Set(busySec / (float64(workers) * wallSec))
	}
}
