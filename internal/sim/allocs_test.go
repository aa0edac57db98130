package sim

import (
	"testing"

	"schedinspector/internal/sched"
	"schedinspector/internal/workload"
)

// TestEnvStepAllocs is the steady-state allocation guard: after a warm-up
// episode, a full Env episode — every scheduling point, backfill pass and
// job start — must perform zero heap allocations.
func TestEnvStepAllocs(t *testing.T) {
	tr := workload.SDSCSP2Like(3000, 13)
	jobs := tr.Window(100, 256)
	cfg := Config{MaxProcs: tr.MaxProcs, Policy: sched.SJF(), Backfill: true, NoValidate: true}
	env := NewEnv()
	episode := func() {
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
		t.Fatalf("steady-state episode allocated %.1f times, want 0", allocs)
	}
}
