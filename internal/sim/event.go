package sim

import "fmt"

// EventKind classifies one simulator event.
type EventKind uint8

// Simulator event kinds, in rough lifecycle order.
const (
	// EventSchedPoint: the base policy picked a top-priority job at a
	// scheduling point (before any inspection).
	EventSchedPoint EventKind = iota
	// EventAccept: the inspector was consulted and let the decision proceed.
	EventAccept
	// EventReject: the inspector was consulted and rejected the decision.
	EventReject
	// EventBackfill: a job is about to start via backfilling.
	EventBackfill
	// EventJobStart: a job started executing.
	EventJobStart
	// EventJobEnd: a job completed and released its processors.
	EventJobEnd
)

var eventKindNames = [...]string{
	EventSchedPoint: "sched_point",
	EventAccept:     "accept",
	EventReject:     "reject",
	EventBackfill:   "backfill",
	EventJobStart:   "job_start",
	EventJobEnd:     "job_end",
}

// String returns the kind's name.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Event is one structured simulator event, handed by value to
// Config.OnEvent. Time is simulation time in seconds; FreeProcs and
// QueueLen are sampled after the event took effect.
type Event struct {
	Kind       EventKind
	Time       float64
	JobID      int
	Procs      int     // processors the job requests
	Wait       float64 // how long the job has waited so far
	FreeProcs  int
	QueueLen   int
	Rejections int // accept/reject: prior rejections of this job
}
