// Package sched implements the base batch-job scheduling policies of
// Table 3 in the paper — FCFS, LCFS, SJF, SQF, SAF, SRF and the
// machine-learned F1 heuristic of Carastan-Santos & de Camargo — plus the
// Slurm multifactor priority policy used in §4.5. SchedInspector never
// modifies these policies; it only accepts or rejects their decisions.
package sched

import (
	"fmt"
	"math"
	"sort"

	"schedinspector/internal/workload"
)

// Policy assigns a priority score to each waiting job. The job with the
// LOWEST score is scheduled first; the simulator breaks ties by smaller job
// ID, as the paper's motivating example does.
//
// How often Score runs depends on the TimeInvariant marker: a policy that
// carries it is scored once per job, when the job arrives, and the simulator
// reuses that value at every scheduling point, backfill probe and
// conservative planning pass; any other policy is re-scored at every use.
type Policy interface {
	Name() string
	// Score rates job j at the current simulation time. Lower runs first.
	Score(j *workload.Job, now float64) float64
}

// TimeInvariant marks a Policy whose Score is a pure function of the job:
// it reads neither now nor any state that changes during a run, so
// Score(j, t1) and Score(j, t2) are the same bits for every t1, t2. All the
// Table 3 score-function policies carry it; Slurm (its age factor reads now,
// its fairshare factor reads running usage) and learned policies do not.
type TimeInvariant interface {
	TimeInvariantScore()
}

// UsageObserver is implemented by stateful policies (Slurm fairshare) that
// must see jobs start to update accounting. The simulator calls ObserveStart
// exactly once per started job.
type UsageObserver interface {
	ObserveStart(j *workload.Job, now float64)
}

// Selector is implemented by policies that pick the next job directly from
// the whole waiting queue instead of through a per-job score — learned
// policies such as the RLScheduler-style kernel network. When a Policy also
// implements Selector, the simulator calls Select for the scheduling
// decision (Score is still used to order backfill candidates). Select
// returns an index into queue; out-of-range values fall back to the
// score-based pick.
type Selector interface {
	Select(queue []workload.Job, now float64, freeProcs, totalProcs int) int
}

// Resetter is implemented by stateful policies whose accounting must be
// cleared between independent simulation runs.
type Resetter interface {
	Reset()
}

// Cloner is implemented by stateful policies that can hand out independent
// copies for concurrent simulation runs: the copy shares read-only data
// (trained weights, precomputed shares) but owns all mutable state.
// ClonePolicy returns nil when the policy is in a mode that cannot be
// copied safely (e.g. recording training samples); callers must then fall
// back to sequential use. Stateless policies need not implement this —
// they are shared as-is.
type Cloner interface {
	ClonePolicy() Policy
}

type simple struct {
	name  string
	score func(j *workload.Job, now float64) float64
}

func (p simple) Name() string                               { return p.name }
func (p simple) Score(j *workload.Job, now float64) float64 { return p.score(j, now) }

// TimeInvariantScore implements TimeInvariant: every simple policy's score
// function ignores its now argument (TestTimeInvariantMarker holds them to it).
func (simple) TimeInvariantScore() {}

// FCFS schedules the job that has waited longest (first come, first served).
func FCFS() Policy {
	return simple{"FCFS", func(j *workload.Job, _ float64) float64 { return j.Submit }}
}

// LCFS schedules the most recently submitted job first.
func LCFS() Policy {
	return simple{"LCFS", func(j *workload.Job, _ float64) float64 { return -j.Submit }}
}

// SJF schedules the job with the smallest estimated runtime first.
func SJF() Policy {
	return simple{"SJF", func(j *workload.Job, _ float64) float64 { return j.Est }}
}

// SQF schedules the job with the smallest resource request first.
func SQF() Policy {
	return simple{"SQF", func(j *workload.Job, _ float64) float64 { return float64(j.Procs) }}
}

// SAF schedules the job with the smallest estimated area (est*procs) first.
func SAF() Policy {
	return simple{"SAF", func(j *workload.Job, _ float64) float64 { return j.Area() }}
}

// SRF schedules the job with the smallest estimated ratio (est/procs) first.
func SRF() Policy {
	return simple{"SRF", func(j *workload.Job, _ float64) float64 { return j.Ratio() }}
}

// F1 is the learned non-linear heuristic of Carastan-Santos & de Camargo
// (SC'17): score = log10(est)*procs + 870*log10(submit). It is the
// state-of-the-art baseline the paper compares against for bsld.
func F1() Policy {
	return simple{"F1", func(j *workload.Job, _ float64) float64 {
		return math.Log10(math.Max(j.Est, 1))*float64(j.Procs) +
			870*math.Log10(math.Max(j.Submit, 1))
	}}
}

// constructors maps each Table 3 abbreviation (plus SQF) to its policy.
var constructors = map[string]func() Policy{
	"FCFS": FCFS, "LCFS": LCFS, "SJF": SJF, "SQF": SQF, "SAF": SAF, "SRF": SRF, "F1": F1,
}

// ByName returns a fresh stateless policy by its Table 3 abbreviation.
func ByName(name string) (Policy, error) {
	if mk, ok := constructors[name]; ok {
		return mk(), nil
	}
	return nil, fmt.Errorf("sched: unknown policy %q", name)
}

// ForTrace returns the policy called name for trace tr: any policy ByName
// knows, or "Slurm", whose shares NewSlurm estimates from tr.
func ForTrace(name string, tr *workload.Trace) (Policy, error) {
	if name == "Slurm" {
		return NewSlurm(tr), nil
	}
	return ByName(name)
}

// Names lists every name ByName accepts, sorted — the enumeration the marker
// and simulator-invariant tests sweep.
func Names() []string {
	names := make([]string, 0, len(constructors))
	for n := range constructors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
