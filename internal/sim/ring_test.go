package sim

import (
	"bytes"
	"testing"

	"schedinspector/internal/explain"
	"schedinspector/internal/obs"
	"schedinspector/internal/sched"
	"schedinspector/internal/workload"
)

// ringSpans decodes the spans a ring currently holds.
func ringSpans(t *testing.T, ring *obs.TraceRing) []obs.Span {
	t.Helper()
	if ring.Dropped() > 0 || ring.Oversized() > 0 {
		t.Fatalf("ring lost records (dropped %d, oversize %d); raise its capacity", ring.Dropped(), ring.Oversized())
	}
	tr, err := explain.ReadFTrace(bytes.NewReader(ring.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	return tr.Spans
}

// TestEnvDecisionSpans pins the flight-recorder contract of the Env: one
// span per inspected decision, named "decision", parented to
// Config.SpanParent, with an ID that is a pure function of (parent,
// decision index), the decision's simulation time, and attributes matching
// the verdict and the job it was about.
func TestEnvDecisionSpans(t *testing.T) {
	tr := workload.SDSCSP2Like(400, 11)
	jobs := tr.Window(50, 64)
	parent := obs.DeriveSpanID(42, 7)
	ring := obs.NewTraceRing(1 << 12)
	cfg := Config{
		MaxProcs: tr.MaxProcs, Policy: sched.SJF(), Backfill: true,
		NoValidate: true, Ring: ring, SpanParent: parent,
	}
	env := NewEnv()
	type decision struct {
		reject bool
		job    int
		now    float64
	}
	var want []decision
	st, done, err := env.Reset(jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for !done {
		reject := st.Job.ID%5 == 0 && st.Rejections < 3
		want = append(want, decision{reject, st.Job.ID, st.Now})
		st, done = env.Step(reject)
	}
	res := env.Result()
	got := ringSpans(t, ring)
	if res.Inspections == 0 {
		t.Fatal("window produced no inspections; widen it")
	}
	if len(got) != res.Inspections {
		t.Fatalf("%d spans for %d inspections", len(got), res.Inspections)
	}
	for i, sp := range got {
		if sp.Name != "decision" || sp.Parent != parent {
			t.Fatalf("span %d: name %q parent %d, want decision/%d", i, sp.Name, sp.Parent, parent)
		}
		if id := obs.DeriveSpanID(uint64(parent), uint64(i)); sp.ID != id {
			t.Fatalf("span %d: ID %d, want derived %d", i, sp.ID, id)
		}
		if sp.WallEnd < sp.WallStart || sp.WallStart == 0 {
			t.Fatalf("span %d: wall times %d..%d", i, sp.WallStart, sp.WallEnd)
		}
		if sp.SimStart != want[i].now || sp.SimEnd != want[i].now {
			t.Fatalf("span %d: sim times %v..%v, want the decision's %v", i, sp.SimStart, sp.SimEnd, want[i].now)
		}
		action, job := "", -1.0
		for _, a := range sp.Attrs {
			switch a.Key {
			case "action":
				action = a.Str
			case "job":
				job = a.Num
			}
		}
		wantAction := "accept"
		if want[i].reject {
			wantAction = "reject"
		}
		if action != wantAction || int(job) != want[i].job {
			t.Fatalf("span %d: action %q job %v, want %q job %d", i, action, job, wantAction, want[i].job)
		}
	}
}

// TestEnvDecisionSpanIDsDeterministic reruns the same episode and demands
// the exact same span ID sequence — identity must never depend on wall
// clock or execution interleaving.
func TestEnvDecisionSpanIDsDeterministic(t *testing.T) {
	tr := workload.SDSCSP2Like(400, 11)
	jobs := tr.Window(50, 64)
	run := func() []obs.SpanID {
		ring := obs.NewTraceRing(1 << 12)
		cfg := Config{
			MaxProcs: tr.MaxProcs, Policy: sched.SJF(), Backfill: true,
			NoValidate: true, Ring: ring, SpanParent: 99,
		}
		env := NewEnv()
		st, done, err := env.Reset(jobs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for !done {
			st, done = env.Step(st.Job.ID%5 == 0 && st.Rejections < 3)
		}
		var ids []obs.SpanID
		for _, sp := range ringSpans(t, ring) {
			ids = append(ids, sp.ID)
		}
		return ids
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("span counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d: ID %d vs %d across identical runs", i, a[i], b[i])
		}
	}
}

// TestEnvRingOnlySpans runs an episode against a ring of the default
// geometry: one record per inspection, nothing dropped.
func TestEnvRingOnlySpans(t *testing.T) {
	tr := workload.SDSCSP2Like(400, 11)
	jobs := tr.Window(50, 64)
	ring := obs.NewTraceRing(0)
	cfg := Config{
		MaxProcs: tr.MaxProcs, Policy: sched.SJF(), Backfill: true,
		NoValidate: true, Ring: ring, SpanParent: 99,
	}
	env := NewEnv()
	st, done, err := env.Reset(jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for !done {
		st, done = env.Step(st.Job.ID%5 == 0 && st.Rejections < 3)
	}
	if want := env.Result().Inspections; int(ring.Total()) != want || want == 0 {
		t.Fatalf("ring recorded %d spans for %d inspections", ring.Total(), want)
	}
	if ring.Dropped() != 0 || ring.Oversized() != 0 {
		t.Fatalf("default ring lost records: dropped %d, oversize %d", ring.Dropped(), ring.Oversized())
	}
}

// stepAllocs runs one warm episode under cfg and returns its allocations.
func stepAllocs(t *testing.T, cfg Config) float64 {
	t.Helper()
	tr := workload.SDSCSP2Like(3000, 13)
	jobs := tr.Window(100, 256)
	cfg.MaxProcs, cfg.Policy, cfg.Backfill, cfg.NoValidate = tr.MaxProcs, sched.SJF(), true, true
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
	return testing.AllocsPerRun(5, episode)
}

// TestEnvStepAllocsNilRing is the explicit flight-recorder variant of
// TestEnvStepAllocs: with Config.Ring nil (tracing disabled) the span hook
// in Env.Step must cost one branch and zero heap allocations per episode.
func TestEnvStepAllocsNilRing(t *testing.T) {
	if allocs := stepAllocs(t, Config{}); allocs > 0 {
		t.Fatalf("nil-ring episode allocated %.1f times, want 0", allocs)
	}
}

// TestEnvStepAllocsBinaryRing is the hot-path pin: an episode with the ring
// attached (no sink) must allocate nothing — spans are patched into a
// precompiled shape inside the preallocated arena.
func TestEnvStepAllocsBinaryRing(t *testing.T) {
	cfg := Config{Ring: obs.NewTraceRing(1 << 12), SpanParent: obs.DeriveSpanID(1)}
	if allocs := stepAllocs(t, cfg); allocs > 0 {
		t.Fatalf("binary-ring episode allocated %.1f times, want 0", allocs)
	}
}
