package sim

import (
	"testing"

	"schedinspector/internal/sched"
	"schedinspector/internal/workload"
)

// TestEnvStepAllocs is the steady-state allocation guard: after a warm-up
// episode, a full Env episode — every scheduling point, backfill pass and
// job start — must perform zero heap allocations, with and without an
// OnEvent hook. The hook appends into a slice the warm-up episode sized, so
// any allocation left is the simulator's: an Event passed by value is never
// boxed.
func TestEnvStepAllocs(t *testing.T) {
	tr := workload.SDSCSP2Like(3000, 13)
	jobs := tr.Window(100, 256)
	var events []Event
	for _, hook := range []func(Event){nil, func(e Event) { events = append(events, e) }} {
		cfg := Config{MaxProcs: tr.MaxProcs, Policy: sched.SJF(), Backfill: true, NoValidate: true, OnEvent: hook}
		env := NewEnv()
		episode := func() {
			events = events[:0]
			obsState, done, err := env.Reset(jobs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for !done {
				obsState, done = env.Step(obsState.Job.ID%7 == 0 && obsState.Rejections < 2)
			}
		}
		episode() // warm up buffers
		if allocs := testing.AllocsPerRun(5, episode); allocs > 0 {
			t.Fatalf("steady-state episode (hook set: %v) allocated %.1f times, want 0", hook != nil, allocs)
		}
		if hook != nil && len(events) == 0 {
			t.Fatal("hook saw no events")
		}
	}
}
