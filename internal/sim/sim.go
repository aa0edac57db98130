// Package sim is an event-driven HPC cluster simulator, the Go equivalent
// of the SchedGym environment the paper extends (§3.2). It schedules a job
// sequence under a base policy, optionally consults an inspector at every
// scheduling decision, honors the MAX_INTERVAL retry cut-off and the
// MAX_REJECTION_TIMES cap, and supports EASY backfilling.
//
// Two runtimes are modeled per job: the actual runtime decides completions;
// the estimated runtime drives the policies, backfilling reservations and
// the inspector's view, exactly as §3.2 prescribes.
//
// The simulator is exposed two ways. Env is the resumable core: a
// reset/step environment that yields control to the caller at every
// scheduling point, in the style of the step-based RL environments of
// RLScheduler and Decima. Run is the run-to-completion convenience built on
// top of it, driving an Env with the Config.Inspector callback.
package sim

import (
	"fmt"

	"schedinspector/internal/metrics"
	"schedinspector/internal/obs"
	"schedinspector/internal/sched"
	"schedinspector/internal/workload"
)

// Default hyperparameters from §4.1 of the paper.
const (
	DefaultMaxInterval   = 600.0 // seconds a rejected decision waits before retry, at most
	DefaultMaxRejections = 72    // rejections allowed per job
)

// Inspector scrutinizes one scheduling decision. Return true to reject the
// decision (the job goes back to the waiting queue and the base scheduler
// retries at the next scheduling point), false to let it proceed.
//
// The State passed in is reused between calls; implementations must copy
// anything they retain.
type Inspector func(s *State) bool

// State is the scheduling context handed to the inspector — the
// "Env. State" box of Figure 3.
type State struct {
	Now float64

	// The decision under inspection.
	Job        workload.Job // the job the base policy picked
	JobWait    float64      // how long it has waited so far
	Rejections int          // times this job has been rejected already

	// Cluster status.
	FreeProcs  int
	TotalProcs int
	Runnable   bool // Job.Procs <= FreeProcs

	// Backfilling context.
	BackfillEnabled bool
	BackfillCount   int // waiting jobs that could backfill right now

	// Waiting queue, excluding the inspected job.
	Queue []QueueItem
}

// QueueItem is the inspector-visible view of one waiting job. The json tags
// are the /v1/inspect wire names: serve.QueueItem is an alias of this type,
// so a decoded request's queue is the State's queue with no conversion.
type QueueItem struct {
	Wait  float64 `json:"wait"` // time in queue
	Est   float64 `json:"est"`  // estimated runtime
	Procs int     `json:"procs"`
}

// NewState assembles an inspector State from its raw components, deriving
// the Runnable bit. External integrations (the HTTP layer, tests) should
// construct states through it rather than field-by-field, so derived fields
// and future State growth have a single construction point.
func NewState(job workload.Job, wait float64, rejections, freeProcs, totalProcs int,
	backfillEnabled bool, backfillCount int, queue []QueueItem) *State {
	return &State{
		Job:             job,
		JobWait:         wait,
		Rejections:      rejections,
		FreeProcs:       freeProcs,
		TotalProcs:      totalProcs,
		Runnable:        job.Procs <= freeProcs,
		BackfillEnabled: backfillEnabled,
		BackfillCount:   backfillCount,
		Queue:           queue,
	}
}

// Config parameterizes one simulation run.
type Config struct {
	MaxProcs      int          // cluster size; must be > 0
	Policy        sched.Policy // base scheduling policy; required
	Backfill      bool         // enable backfilling (EASY unless Conservative)
	Conservative  bool         // with Backfill: conservative (all-reservations) variant
	Inspector     Inspector    // optional; nil runs the base policy alone (ignored by Env.Reset)
	MaxInterval   float64      // retry cut-off; 0 means DefaultMaxInterval
	MaxRejections int          // per-job rejection cap; 0 means DefaultMaxRejections; <0 means none allowed
	TrackUsage    bool         // record the usage timeline (Result.Usage)
	Tracer        *obs.Tracer  // optional event tracer; nil (the default) costs one branch per event site

	// NoValidate skips the per-run job validation and sortedness check.
	// Set it when the jobs come from a pre-validated source — e.g. a
	// workload.Trace that already passed Validate — so hot paths that
	// replay windows of it (the rollout driver's episodes) do not re-verify
	// every job on every run.
	NoValidate bool
}

// Result is the outcome of a simulation run.
type Result struct {
	Results     []metrics.JobResult // one per job, in start order
	Inspections int                 // how many times the inspector was consulted
	Rejections  int                 // how many decisions it rejected
	Backfills   int                 // jobs started by backfilling
	IdleDelay   float64             // total time spent idling due to rejections
	Usage       []UsagePoint        // usage timeline (only with Config.TrackUsage)
}

// RejectionRatio returns rejections/inspections (0 if never consulted),
// the orange curves of Figures 7, 9 and 11.
func (r Result) RejectionRatio() float64 {
	if r.Inspections == 0 {
		return 0
	}
	return float64(r.Rejections) / float64(r.Inspections)
}

// Summary computes the metrics summary of the run.
func (r Result) Summary(maxProcs int) metrics.Summary {
	return metrics.Compute(r.Results, maxProcs)
}

// ValidateJobs checks a job sequence for simulation validity: every job
// well-formed for a maxProcs cluster and the sequence sorted by submit
// time. It is the check Run performs on every call unless Config.NoValidate
// is set; callers that replay the same jobs repeatedly should validate once
// here and set NoValidate.
func ValidateJobs(jobs []workload.Job, maxProcs int) error {
	for i := range jobs {
		if err := jobs[i].Validate(maxProcs); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		if i > 0 && jobs[i].Submit < jobs[i-1].Submit {
			return fmt.Errorf("sim: jobs not sorted by submit at index %d", i)
		}
	}
	return nil
}

// Run schedules the job sequence to completion and returns the results.
// The jobs slice is not modified. It panics on invalid configuration and
// returns an error for invalid jobs.
//
// Run is a thin loop over Env: it resets an environment and answers every
// yielded decision with cfg.Inspector (accepting everything, without
// consulting or counting, when the inspector is nil), which keeps the
// callback path and the caller-driven Env path bit-identical by
// construction.
func Run(jobs []workload.Job, cfg Config) (Result, error) {
	var env Env
	return RunEnv(&env, jobs, cfg)
}

// RunEnv is Run on a caller-owned environment, reusing its internal buffers
// across calls — the allocation-lean path for drivers that replay many
// windows (the rollout driver's straight-through episodes). The returned
// Result aliases env storage and is invalidated by the env's next Reset or
// RunEnv; callers retaining it across episodes must copy the Results and
// Usage slices.
func RunEnv(env *Env, jobs []workload.Job, cfg Config) (Result, error) {
	obs, done, err := env.reset(jobs, cfg, cfg.Inspector != nil)
	if err != nil {
		return Result{}, err
	}
	for !done {
		obs, done = env.Step(cfg.Inspector(obs))
	}
	return env.Result(), nil
}

// waiting is a queued job plus its simulator bookkeeping.
type waiting struct {
	job     workload.Job
	rejects int
	score   float64 // base-policy score, set at arrival iff Env.scoreStored
}

// runningJob tracks one executing job in the completion heap.
type runningJob struct {
	end    float64 // actual completion time
	estEnd float64 // estimated completion time (start + est)
	procs  int
	id     int
}
