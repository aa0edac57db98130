package sim

import (
	"schedinspector/internal/metrics"
	"schedinspector/internal/sched"
	"schedinspector/internal/workload"
)

// Snapshot is a deep copy of an Env's mutable simulation state, taken at a
// yield point or at episode end. Restoring it rewinds an Env to that exact
// point: the clock, the waiting queue (with per-job rejection counts and
// arrival-time scores), the running set, and every accumulated Result
// field, so replaying the same decisions from a restored snapshot is
// bit-identical to the original run.
//
// What a snapshot does NOT capture is external state: the Config.Policy
// instance (stateful policies such as Slurm fairshare keep their own
// accounting — restore across a stateful policy only at episode boundaries,
// or pair the snapshot with a policy clone) and the Config.Tracer (restored
// runs re-emit events from the restore point onward).
type Snapshot struct {
	cfg     Config
	jobs    []workload.Job // shared read-only with the source Env
	nextArr int
	queue   []waiting
	running []runningJob
	free    int
	now     float64
	out     Result

	interactive bool
	phase       envPhase
	decision    int
}

// Snapshot captures the env's current state. It panics before the first
// Reset. Taking a snapshot allocates (deep copies); it is meant for
// checkpoint/branch workloads — e.g. caching the mid-window state a
// baseline replay shares with many inspected replays — not for the
// per-decision hot path.
func (e *Env) Snapshot() *Snapshot {
	if e.phase == envIdle {
		panic("sim: Snapshot before Reset")
	}
	return &Snapshot{
		cfg:     e.cfg,
		jobs:    e.jobs,
		nextArr: e.nextArr,
		queue:   append([]waiting(nil), e.queue...),
		running: append([]runningJob(nil), e.running...),
		free:    e.free,
		now:     e.now,
		out: Result{
			Results:     append([]metrics.JobResult(nil), e.out.Results...),
			Inspections: e.out.Inspections,
			Rejections:  e.out.Rejections,
			Backfills:   e.out.Backfills,
			IdleDelay:   e.out.IdleDelay,
			Usage:       append([]UsagePoint(nil), e.out.Usage...),
		},
		interactive: e.interactive,
		phase:       e.phase,
		decision:    e.decision,
	}
}

// Restore rewinds the env to a snapshot (its own or one taken from another
// Env over the same jobs) and returns the pending observation, mirroring
// Reset: done is false with the refilled decision state when the snapshot
// was taken at a yield point, true when it was taken at episode end. The
// snapshot itself is not consumed and may be restored any number of times.
func (e *Env) Restore(s *Snapshot) (*State, bool) {
	e.cfg = s.cfg
	e.jobs = s.jobs
	e.nextArr = s.nextArr
	e.queue = append(e.queue[:0], s.queue...)
	e.running = append(e.running[:0], s.running...)
	e.free = s.free
	e.now = s.now
	e.out = Result{
		Results:     append(e.out.Results[:0], s.out.Results...),
		Inspections: s.out.Inspections,
		Rejections:  s.out.Rejections,
		Backfills:   s.out.Backfills,
		IdleDelay:   s.out.IdleDelay,
		Usage:       append(e.out.Usage[:0], s.out.Usage...),
	}
	e.interactive = s.interactive
	// The queue entries carry scores exactly when the snapshot's policy is
	// time-invariant, whatever this env ran before.
	_, e.scoreStored = s.cfg.Policy.(sched.TimeInvariant)
	e.phase = s.phase
	e.decision = s.decision
	if e.phase == envYield {
		e.fillState(e.decision)
		return &e.state, false
	}
	return nil, true
}
