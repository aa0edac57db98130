package sim

import (
	"reflect"
	"strings"
	"testing"

	"schedinspector/internal/sched"
	"schedinspector/internal/workload"
)

// recordEvents sets cfg.OnEvent to a hook that appends every event to the
// returned slice.
func recordEvents(cfg *Config) *[]Event {
	var events []Event
	cfg.OnEvent = func(e Event) { events = append(events, e) }
	return &events
}

func TestEventKindString(t *testing.T) {
	cases := map[EventKind]string{
		EventSchedPoint: "sched_point", EventAccept: "accept", EventReject: "reject",
		EventBackfill: "backfill", EventJobStart: "job_start", EventJobEnd: "job_end",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if s := EventKind(200).String(); !strings.Contains(s, "200") {
		t.Errorf("unknown kind %q", s)
	}
}

// traceJobs is a tiny deterministic sequence: J1 fills half the cluster,
// J2 arrives later and fits alongside, J3 needs the whole machine.
func traceJobs() []workload.Job {
	return []workload.Job{
		{ID: 1, Submit: 0, Run: 100, Est: 120, Procs: 2},
		{ID: 2, Submit: 10, Run: 50, Est: 60, Procs: 2},
		{ID: 3, Submit: 20, Run: 30, Est: 40, Procs: 4},
	}
}

func TestTracerEventLifecycle(t *testing.T) {
	cfg := Config{MaxProcs: 4, Policy: sched.FCFS()}
	events := recordEvents(&cfg)
	res, err := Run(traceJobs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 3 {
		t.Fatalf("scheduled %d jobs", len(res.Results))
	}
	counts := map[EventKind]int{}
	starts := map[int]bool{}
	ends := map[int]bool{}
	var lastTime float64
	for _, e := range *events {
		counts[e.Kind]++
		if e.Time < lastTime {
			t.Fatalf("events out of order: %v after t=%v", e, lastTime)
		}
		lastTime = e.Time
		switch e.Kind {
		case EventJobStart:
			starts[e.JobID] = true
		case EventJobEnd:
			if !starts[e.JobID] {
				t.Errorf("job %d ended before starting", e.JobID)
			}
			ends[e.JobID] = true
		}
	}
	if counts[EventJobStart] != 3 {
		t.Errorf("%d job_start events, want 3", counts[EventJobStart])
	}
	// All three jobs start, so all three completions are eventually popped
	// only if the sim advances past them; the run ends when the last job
	// STARTS, so ends <= starts.
	if counts[EventJobEnd] > counts[EventJobStart] {
		t.Errorf("more ends (%d) than starts (%d)", counts[EventJobEnd], counts[EventJobStart])
	}
	if counts[EventSchedPoint] < 3 {
		t.Errorf("%d sched_point events, want >= 3", counts[EventSchedPoint])
	}
	// No inspector: no accept/reject events.
	if counts[EventAccept] != 0 || counts[EventReject] != 0 {
		t.Errorf("inspection events without inspector: %v", counts)
	}
}

func TestTracerInspectionEvents(t *testing.T) {
	rejectFirst := 0
	insp := func(s *State) bool {
		rejectFirst++
		return rejectFirst == 1 // reject exactly the first consulted decision
	}
	cfg := Config{MaxProcs: 4, Policy: sched.FCFS(), Inspector: insp}
	events := recordEvents(&cfg)
	res, err := Run(traceJobs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejections != 1 {
		t.Fatalf("rejections %d", res.Rejections)
	}
	var accepts, rejects int
	for _, e := range *events {
		switch e.Kind {
		case EventAccept:
			accepts++
		case EventReject:
			rejects++
			if e.JobID != 1 || e.Rejections != 0 {
				t.Errorf("reject event %+v", e)
			}
		}
	}
	if rejects != 1 || accepts != res.Inspections-1 {
		t.Errorf("accepts %d rejects %d, inspections %d", accepts, rejects, res.Inspections)
	}
}

func TestTracerBackfillEvent(t *testing.T) {
	// J1 occupies most of the machine; FCFS commits to wide J2; J3 fits in
	// the leftover and finishes before J2's shadow time -> EASY backfills it.
	jobs := []workload.Job{
		{ID: 1, Submit: 0, Run: 100, Est: 100, Procs: 3},
		{ID: 2, Submit: 1, Run: 50, Est: 50, Procs: 4},
		{ID: 3, Submit: 2, Run: 10, Est: 10, Procs: 1},
	}
	cfg := Config{MaxProcs: 4, Policy: sched.FCFS(), Backfill: true}
	events := recordEvents(&cfg)
	res, err := Run(jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backfills != 1 {
		t.Fatalf("backfills %d, want 1", res.Backfills)
	}
	found := false
	for _, e := range *events {
		if e.Kind == EventBackfill {
			found = true
			if e.JobID != 3 {
				t.Errorf("backfill event for job %d, want 3", e.JobID)
			}
		}
	}
	if !found {
		t.Error("no backfill event traced")
	}
}

// TestOnEventLeavesResultUnchanged pins that the hook only observes: a run
// with OnEvent set is identical in results to the same run without it.
func TestOnEventLeavesResultUnchanged(t *testing.T) {
	tr := workload.SDSCSP2Like(600, 11)
	jobs := tr.Window(0, 200)
	cfg := Config{MaxProcs: tr.MaxProcs, Policy: sched.SJF(), Backfill: true, Inspector: scriptedInspector()}
	a, err := Run(jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Inspector = scriptedInspector()
	events := recordEvents(&cfg)
	b, err := Run(jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(*events) == 0 {
		t.Fatal("hook saw no events")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("hook changed the result: %+v vs %+v", summarizeResult(a), summarizeResult(b))
	}
}
