// Package core implements SchedInspector itself: the feature-building
// mechanism (§3.3), the reward functions (§3.4), the RL inspector that
// accepts or rejects base-scheduler decisions, its PPO training loop
// (Figure 3), and evaluation helpers for the paper's experiments, among
// them the whole-trace replay (ReplayWhole) whose flight record feeds the
// §5 "what SchedInspector learns" analysis in internal/explain.
package core

import (
	"fmt"
	"math"

	"schedinspector/internal/metrics"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

// FeatureMode selects how the environment state is summarized for the RL
// agent. The paper compares three mechanisms (§4.3.1, Figure 5).
type FeatureMode int

const (
	// ManualFeatures is the paper's engineered set: scheduled-job
	// attributes, rejected times, metric-aware queue delays, cluster
	// availability, runnable bit and backfilling contributions.
	ManualFeatures FeatureMode = iota
	// CompactedFeatures keeps only the scheduled job and cluster state,
	// dropping the aggregated queue-delay and backfill features.
	CompactedFeatures
	// NativeFeatures feeds the (padded) raw environment state: the scheduled
	// job plus the first NativeQueueSlots waiting jobs' raw attributes.
	NativeFeatures
)

// NativeQueueSlots is how many waiting jobs the native feature vector
// exposes verbatim.
const NativeQueueSlots = 32

// String returns the mode's name.
func (m FeatureMode) String() string {
	switch m {
	case ManualFeatures:
		return "manual"
	case CompactedFeatures:
		return "compacted"
	case NativeFeatures:
		return "native"
	}
	return fmt.Sprintf("FeatureMode(%d)", int(m))
}

// ParseFeatureMode converts a name into a FeatureMode.
func ParseFeatureMode(s string) (FeatureMode, error) {
	switch s {
	case "manual":
		return ManualFeatures, nil
	case "compacted":
		return CompactedFeatures, nil
	case "native":
		return NativeFeatures, nil
	}
	return 0, fmt.Errorf("core: unknown feature mode %q", s)
}

// Dim returns the feature vector length of the mode.
func (m FeatureMode) Dim() int {
	switch m {
	case ManualFeatures:
		return 8
	case CompactedFeatures:
		return 5
	case NativeFeatures:
		return 6 + 3*NativeQueueSlots
	}
	panic("core: unknown feature mode")
}

// Normalizer scales raw state quantities into the [0,1)-ish ranges the
// network trains on, using historical statistics of the (training) trace —
// the "historical job trace statistics" the paper's statistical strategy
// relies on (§2.2).
type Normalizer struct {
	MaxEst        float64 // largest estimated runtime seen in the trace
	MeanEst       float64 // mean estimated runtime
	MaxProcs      int     // cluster size
	MaxRejections int     // per-job rejection cap (feature scale)
	MaxInterval   float64 // retry cut-off used for queue-delay scaling
	Metric        metrics.Metric
}

// NewNormalizer derives normalization constants from trace statistics for
// the given metric and the simulator's rejection hyperparameters.
func NewNormalizer(s workload.Stats, metric metrics.Metric, maxRejections int, maxInterval float64) Normalizer {
	n := Normalizer{
		MaxEst:        s.MaxEst,
		MeanEst:       s.MeanEst,
		MaxProcs:      s.MaxProcs,
		MaxRejections: maxRejections,
		MaxInterval:   maxInterval,
		Metric:        metric,
	}
	if n.MaxEst <= 0 {
		n.MaxEst = 1
	}
	if n.MeanEst <= 0 {
		n.MeanEst = 1
	}
	if n.MaxProcs <= 0 {
		n.MaxProcs = 1
	}
	if n.MaxRejections <= 0 {
		n.MaxRejections = sim.DefaultMaxRejections
	}
	if n.MaxInterval <= 0 {
		n.MaxInterval = sim.DefaultMaxInterval
	}
	return n
}

// squash maps x >= 0 into [0,1) with half-point at c.
func squash(x, c float64) float64 {
	if x <= 0 {
		return 0
	}
	return x / (x + c)
}

// QueueDelay computes the raw metric-aware queue-delay aggregate (§3.3): the
// summed expected penalty of idling the cluster for one retry interval
// across all waiting jobs.
func (n Normalizer) QueueDelay(queue []sim.QueueItem) float64 {
	var sum float64
	for _, q := range queue {
		sum += metrics.DeltaPerWaitingJob(n.Metric, n.MaxInterval, q.Est)
	}
	return sum
}

// queueDelayScale is the squash half-point for the queue-delay feature: the
// penalty of ten average jobs waiting one retry interval, so the feature
// self-adapts to whichever metric is optimized.
func (n Normalizer) queueDelayScale() float64 {
	return 10 * metrics.DeltaPerWaitingJob(n.Metric, n.MaxInterval, n.MeanEst)
}

// Features builds the feature vector for state s under mode, reusing dst
// when it has the right capacity. Values are all in [0,1].
//
// Manual layout (indices matter to the §5 analysis):
//
//	0 wait     — scheduled job's waiting time, squashed at the mean estimate
//	1 est      — scheduled job's estimated runtime / max estimate
//	2 procs    — scheduled job's requested processors / cluster size
//	3 rejected — rejections so far / MAX_REJECTION_TIMES
//	4 qdelay   — metric-aware queue-delay aggregate, squashed
//	5 avail    — free processors / cluster size
//	6 runnable — 1 if the job fits right now
//	7 backfill — backfillable-job count, squashed at 5 (0 when disabled)
func (n Normalizer) Features(dst []float64, mode FeatureMode, s *sim.State) []float64 {
	dst = resize(dst, mode.Dim())
	switch mode {
	case ManualFeatures:
		dst[0] = squash(s.JobWait, n.MeanEst)
		dst[1] = math.Min(s.Job.Est/n.MaxEst, 1)
		dst[2] = math.Min(float64(s.Job.Procs)/float64(n.MaxProcs), 1)
		dst[3] = math.Min(float64(s.Rejections)/float64(n.MaxRejections), 1)
		dst[4] = squash(n.QueueDelay(s.Queue), n.queueDelayScale())
		dst[5] = float64(s.FreeProcs) / float64(n.MaxProcs)
		dst[6] = b2f(s.Runnable)
		dst[7] = squash(float64(s.BackfillCount), 5)
	case CompactedFeatures:
		dst[0] = squash(s.JobWait, n.MeanEst)
		dst[1] = math.Min(s.Job.Est/n.MaxEst, 1)
		dst[2] = math.Min(float64(s.Job.Procs)/float64(n.MaxProcs), 1)
		dst[3] = float64(s.FreeProcs) / float64(n.MaxProcs)
		dst[4] = b2f(s.Runnable)
	case NativeFeatures:
		dst[0] = squash(s.JobWait, n.MeanEst)
		dst[1] = math.Min(s.Job.Est/n.MaxEst, 1)
		dst[2] = math.Min(float64(s.Job.Procs)/float64(n.MaxProcs), 1)
		dst[3] = math.Min(float64(s.Rejections)/float64(n.MaxRejections), 1)
		dst[4] = float64(s.FreeProcs) / float64(n.MaxProcs)
		dst[5] = b2f(s.Runnable)
		for i := 0; i < NativeQueueSlots; i++ {
			base := 6 + 3*i
			if i < len(s.Queue) {
				q := s.Queue[i]
				dst[base] = squash(q.Wait, n.MeanEst)
				dst[base+1] = math.Min(q.Est/n.MaxEst, 1)
				dst[base+2] = math.Min(float64(q.Procs)/float64(n.MaxProcs), 1)
			} else {
				dst[base], dst[base+1], dst[base+2] = 0, 0, 0
			}
		}
	default:
		panic("core: unknown feature mode")
	}
	return dst
}

func resize(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// FeatureNames labels the feature vector of any mode, index-aligned with
// Normalizer.Features output — the explain-record header that lets the
// analysis layer report per-feature statistics by name.
func (m FeatureMode) FeatureNames() []string {
	switch m {
	case ManualFeatures:
		return []string{
			"waiting_time", "job_execution_time", "requested_nodes",
			"rejected_times", "queue_delays", "free_nodes", "runnable", "backfill_contributions",
		}
	case CompactedFeatures:
		return []string{
			"waiting_time", "job_execution_time", "requested_nodes", "free_nodes", "runnable",
		}
	case NativeFeatures:
		names := []string{
			"waiting_time", "job_execution_time", "requested_nodes",
			"rejected_times", "free_nodes", "runnable",
		}
		for i := 0; i < NativeQueueSlots; i++ {
			names = append(names,
				fmt.Sprintf("queue%d_wait", i),
				fmt.Sprintf("queue%d_est", i),
				fmt.Sprintf("queue%d_procs", i),
			)
		}
		return names
	}
	panic("core: unknown feature mode")
}
