package sim

import (
	"container/heap"
	"math"
	"reflect"
	"sort"
	"testing"

	"schedinspector/internal/metrics"
	"schedinspector/internal/obs"
	"schedinspector/internal/sched"
	"schedinspector/internal/workload"
)

// ---------------------------------------------------------------------------
// Legacy reference implementation.
//
// This is the pre-refactor run-to-completion simulator, copied verbatim from
// the seed (callback-driven, container/heap, per-call allocations), kept as
// the golden reference the Env-driven paths are pinned against. Do not
// "improve" it: its entire value is being the old behavior, bit for bit.
// ---------------------------------------------------------------------------

type legacyRunHeap []runningJob

func (h legacyRunHeap) Len() int           { return len(h) }
func (h legacyRunHeap) Less(i, k int) bool { return h[i].end < h[k].end }
func (h legacyRunHeap) Swap(i, k int)      { h[i], h[k] = h[k], h[i] }
func (h *legacyRunHeap) Push(x any)        { *h = append(*h, x.(runningJob)) }
func (h *legacyRunHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

type legacySim struct {
	cfg     Config
	pending []workload.Job
	queue   []waiting
	running legacyRunHeap
	free    int
	now     float64
	out     Result
	state   State
}

func legacyRun(jobs []workload.Job, cfg Config) (Result, error) {
	if cfg.MaxInterval == 0 {
		cfg.MaxInterval = DefaultMaxInterval
	}
	if cfg.MaxRejections == 0 {
		cfg.MaxRejections = DefaultMaxRejections
	}
	if cfg.MaxRejections < 0 {
		cfg.MaxRejections = 0
	}
	if err := ValidateJobs(jobs, cfg.MaxProcs); err != nil {
		return Result{}, err
	}
	if r, ok := cfg.Policy.(sched.Resetter); ok {
		r.Reset()
	}
	s := &legacySim{cfg: cfg, pending: jobs, free: cfg.MaxProcs}
	s.run()
	return s.out, nil
}

func (s *legacySim) run() {
	s.ingestArrivals()
	s.recordUsage()
	for {
		s.ingestArrivals()
		if len(s.queue) == 0 || s.free == 0 {
			t, ok := s.nextEvent()
			if !ok {
				return
			}
			s.advanceTo(t)
			continue
		}
		idx := s.pickTop()
		if t := s.cfg.Tracer; t != nil {
			w := &s.queue[idx]
			t.Emit(obs.Event{
				Kind: obs.EventSchedPoint, Time: s.now, JobID: w.job.ID, Procs: w.job.Procs,
				Wait: s.now - w.job.Submit, FreeProcs: s.free, QueueLen: len(s.queue),
			})
		}
		if s.rejectDecision(idx) {
			s.queue[idx].rejects++
			s.out.Rejections++
			before := s.now
			t := s.now + s.cfg.MaxInterval
			if e, ok := s.nextEvent(); ok && e < t {
				t = e
			}
			s.out.IdleDelay += t - before
			s.advanceTo(t)
			continue
		}
		s.scheduleJob(idx)
	}
}

func (s *legacySim) rejectDecision(idx int) bool {
	if s.cfg.Inspector == nil {
		return false
	}
	w := &s.queue[idx]
	if w.rejects >= s.cfg.MaxRejections {
		return false
	}
	s.fillState(idx)
	s.out.Inspections++
	rejected := s.cfg.Inspector(&s.state)
	if t := s.cfg.Tracer; t != nil {
		kind := obs.EventAccept
		if rejected {
			kind = obs.EventReject
		}
		t.Emit(obs.Event{
			Kind: kind, Time: s.now, JobID: w.job.ID, Procs: w.job.Procs,
			Wait: s.now - w.job.Submit, FreeProcs: s.free, QueueLen: len(s.queue),
			Rejections: w.rejects,
		})
	}
	return rejected
}

func (s *legacySim) fillState(idx int) {
	w := &s.queue[idx]
	st := &s.state
	st.Now = s.now
	st.Job = w.job
	st.JobWait = s.now - w.job.Submit
	st.Rejections = w.rejects
	st.FreeProcs = s.free
	st.TotalProcs = s.cfg.MaxProcs
	st.Runnable = w.job.Procs <= s.free
	st.BackfillEnabled = s.cfg.Backfill
	st.BackfillCount = 0
	if s.cfg.Backfill {
		st.BackfillCount = s.countBackfillable(idx)
	}
	st.Queue = st.Queue[:0]
	for i := range s.queue {
		if i == idx {
			continue
		}
		q := &s.queue[i]
		st.Queue = append(st.Queue, QueueItem{
			Wait:  s.now - q.job.Submit,
			Est:   q.job.Est,
			Procs: q.job.Procs,
		})
	}
}

func (s *legacySim) pickTop() int {
	if sel, ok := s.cfg.Policy.(sched.Selector); ok {
		jobs := make([]workload.Job, len(s.queue))
		for i := range s.queue {
			jobs[i] = s.queue[i].job
		}
		if idx := sel.Select(jobs, s.now, s.free, s.cfg.MaxProcs); idx >= 0 && idx < len(s.queue) {
			return idx
		}
	}
	best := 0
	bestScore := s.cfg.Policy.Score(&s.queue[0].job, s.now)
	for i := 1; i < len(s.queue); i++ {
		sc := s.cfg.Policy.Score(&s.queue[i].job, s.now)
		if sc < bestScore || (sc == bestScore && s.queue[i].job.ID < s.queue[best].job.ID) {
			best, bestScore = i, sc
		}
	}
	return best
}

func (s *legacySim) scheduleJob(idx int) {
	if s.queue[idx].job.Procs <= s.free {
		s.startJob(idx)
		return
	}
	reservedID := s.queue[idx].job.ID
	for {
		i := s.indexOf(reservedID)
		if s.queue[i].job.Procs <= s.free {
			s.startJob(i)
			return
		}
		if s.cfg.Backfill {
			if s.cfg.Conservative {
				s.backfillConservative(reservedID)
			} else {
				s.backfill(reservedID)
			}
			i = s.indexOf(reservedID)
			if s.queue[i].job.Procs <= s.free {
				s.startJob(i)
				return
			}
		}
		t, ok := s.nextEvent()
		if !ok {
			panic("legacy: reserved job starved with no future events")
		}
		s.advanceTo(t)
	}
}

func (s *legacySim) indexOf(id int) int {
	for i := range s.queue {
		if s.queue[i].job.ID == id {
			return i
		}
	}
	panic("legacy: reserved job vanished from queue")
}

func (s *legacySim) startJob(idx int) {
	w := s.queue[idx]
	j := w.job
	if j.Procs > s.free {
		panic("legacy: startJob without resources")
	}
	s.free -= j.Procs
	heap.Push(&s.running, runningJob{end: s.now + j.Run, estEnd: s.now + j.Est, procs: j.Procs, id: j.ID})
	s.out.Results = append(s.out.Results, metrics.JobResult{
		ID: j.ID, Submit: j.Submit, Start: s.now, End: s.now + j.Run,
		Run: j.Run, Est: j.Est, Procs: j.Procs,
	})
	if obs, ok := s.cfg.Policy.(sched.UsageObserver); ok {
		obs.ObserveStart(&j, s.now)
	}
	s.queue = append(s.queue[:idx], s.queue[idx+1:]...)
	if t := s.cfg.Tracer; t != nil {
		t.Emit(obs.Event{
			Kind: obs.EventJobStart, Time: s.now, JobID: j.ID, Procs: j.Procs,
			Wait: s.now - j.Submit, FreeProcs: s.free, QueueLen: len(s.queue),
		})
	}
	s.recordUsage()
}

func (s *legacySim) recordUsage() {
	if !s.cfg.TrackUsage {
		return
	}
	used := s.cfg.MaxProcs - s.free
	q := len(s.queue)
	n := len(s.out.Usage)
	if n > 0 {
		last := &s.out.Usage[n-1]
		if last.UsedProc == used && last.QueueLen == q {
			return
		}
		if last.Time == s.now {
			last.UsedProc, last.QueueLen = used, q
			return
		}
	}
	s.out.Usage = append(s.out.Usage, UsagePoint{Time: s.now, UsedProc: used, QueueLen: q})
}

func (s *legacySim) reservation(reservedProcs int) (shadow float64, extra int) {
	if reservedProcs <= s.free {
		return s.now, s.free - reservedProcs
	}
	ends := make([]runningJob, len(s.running))
	copy(ends, s.running)
	for i := range ends {
		if ends[i].estEnd < s.now {
			ends[i].estEnd = s.now
		}
	}
	sortByEstEnd(ends)
	avail := s.free
	for _, r := range ends {
		avail += r.procs
		if avail >= reservedProcs {
			return r.estEnd, avail - reservedProcs
		}
	}
	return math.Inf(1), 0
}

func (s *legacySim) backfill(reservedID int) {
	i := s.indexOf(reservedID)
	shadow, extra := s.reservation(s.queue[i].job.Procs)
	for {
		idx := s.pickBackfillable(reservedID, shadow, extra)
		if idx < 0 {
			return
		}
		procs := s.queue[idx].job.Procs
		if procs <= extra {
			extra -= procs
		}
		s.emitBackfill(idx)
		s.startJob(idx)
		s.out.Backfills++
	}
}

func (s *legacySim) emitBackfill(idx int) {
	t := s.cfg.Tracer
	if t == nil {
		return
	}
	j := &s.queue[idx].job
	t.Emit(obs.Event{
		Kind: obs.EventBackfill, Time: s.now, JobID: j.ID, Procs: j.Procs,
		Wait: s.now - j.Submit, FreeProcs: s.free, QueueLen: len(s.queue),
	})
}

func (s *legacySim) pickBackfillable(reservedID int, shadow float64, extra int) int {
	best := -1
	var bestScore float64
	for i := range s.queue {
		j := &s.queue[i].job
		if j.ID == reservedID || j.Procs > s.free {
			continue
		}
		if s.now+j.Est > shadow && j.Procs > extra {
			continue
		}
		sc := s.cfg.Policy.Score(j, s.now)
		if best < 0 || sc < bestScore || (sc == bestScore && j.ID < s.queue[best].job.ID) {
			best, bestScore = i, sc
		}
	}
	return best
}

func (s *legacySim) countBackfillable(idx int) int {
	shadow, extra := s.reservation(s.queue[idx].job.Procs)
	free := s.free
	if s.queue[idx].job.Procs <= s.free {
		free -= s.queue[idx].job.Procs
	}
	n := 0
	for i := range s.queue {
		if i == idx {
			continue
		}
		j := &s.queue[i].job
		if j.Procs > free {
			continue
		}
		if s.now+j.Est <= shadow || j.Procs <= extra {
			n++
		}
	}
	return n
}

// legacy conservative backfilling, verbatim from the seed (profile.go held
// the planner; the driver loop lived alongside backfill).
func (s *legacySim) backfillConservative(reservedID int) {
	for {
		if !s.conservativePass(reservedID) {
			return
		}
	}
}

func (s *legacySim) conservativePass(reservedID int) bool {
	p := newProfile(s.now, s.free, s.running)
	order := make([]int, 0, len(s.queue))
	ri := s.indexOf(reservedID)
	order = append(order, ri)
	type scored struct {
		idx   int
		score float64
		id    int
	}
	rest := make([]scored, 0, len(s.queue)-1)
	for i := range s.queue {
		if i == ri {
			continue
		}
		rest = append(rest, scored{i, s.cfg.Policy.Score(&s.queue[i].job, s.now), s.queue[i].job.ID})
	}
	sort.Slice(rest, func(a, b int) bool {
		if rest[a].score != rest[b].score {
			return rest[a].score < rest[b].score
		}
		return rest[a].id < rest[b].id
	})
	for _, r := range rest {
		order = append(order, r.idx)
	}
	for _, idx := range order {
		j := &s.queue[idx].job
		start := p.earliestStart(j.Procs, j.Est)
		if start <= s.now && j.Procs <= s.free && j.ID != reservedID {
			s.emitBackfill(idx)
			s.startJob(idx)
			s.out.Backfills++
			return true
		}
		p.reserve(start, j.Procs, j.Est)
	}
	return false
}

func (s *legacySim) nextEvent() (float64, bool) {
	t := math.Inf(1)
	if len(s.pending) > 0 {
		t = s.pending[0].Submit
	}
	if len(s.running) > 0 && s.running[0].end < t {
		t = s.running[0].end
	}
	if math.IsInf(t, 1) {
		return 0, false
	}
	return t, true
}

func (s *legacySim) advanceTo(t float64) {
	if t < s.now {
		panic("legacy: time going backwards")
	}
	s.now = t
	for len(s.running) > 0 && s.running[0].end <= t {
		r := heap.Pop(&s.running).(runningJob)
		s.free += r.procs
		if tr := s.cfg.Tracer; tr != nil {
			tr.Emit(obs.Event{
				Kind: obs.EventJobEnd, Time: r.end, JobID: r.id, Procs: r.procs,
				FreeProcs: s.free, QueueLen: len(s.queue),
			})
		}
	}
	s.ingestArrivals()
	s.recordUsage()
}

func (s *legacySim) ingestArrivals() {
	for len(s.pending) > 0 && s.pending[0].Submit <= s.now {
		s.queue = append(s.queue, waiting{job: s.pending[0]})
		s.pending = s.pending[1:]
	}
}

// ---------------------------------------------------------------------------
// Golden equivalence suite.
// ---------------------------------------------------------------------------

// scriptedInspector is a deterministic non-trivial decision rule that
// exercises the rejection machinery, including repeat rejections of the
// same job.
func scriptedInspector() Inspector {
	return func(s *State) bool {
		if s.Rejections >= 3 {
			return false
		}
		if !s.Runnable {
			return s.Job.ID%2 == 0
		}
		return s.Job.ID%5 == 0 && len(s.Queue) > 2
	}
}

func equivPolicies(t *testing.T, tr *workload.Trace) map[string]func() sched.Policy {
	t.Helper()
	return map[string]func() sched.Policy{
		"FCFS":  sched.FCFS,
		"SJF":   sched.SJF,
		"F1":    sched.F1,
		"Slurm": func() sched.Policy { return sched.NewSlurm(tr) },
	}
}

// TestEquivEnvVsLegacyRun pins the Env-driven simulator against the
// verbatim pre-refactor implementation across all base policies, backfill
// variants and inspection settings: identical Result structs and identical
// trace event streams.
func TestEquivEnvVsLegacyRun(t *testing.T) {
	tr := workload.SDSCSP2Like(3000, 11)
	jobs := tr.Window(40, 220)
	for name, mk := range equivPolicies(t, tr) {
		for _, bf := range []struct {
			name                   string
			backfill, conservative bool
		}{
			{"nobf", false, false},
			{"easy", true, false},
			{"conservative", true, true},
		} {
			for _, insp := range []struct {
				name string
				mk   func() Inspector
			}{
				{"noinsp", func() Inspector { return nil }},
				{"scripted", scriptedInspector},
			} {
				t.Run(name+"/"+bf.name+"/"+insp.name, func(t *testing.T) {
					mkCfg := func(tracer *obs.Tracer, ins Inspector) Config {
						return Config{
							MaxProcs: tr.MaxProcs, Policy: mk(), Backfill: bf.backfill,
							Conservative: bf.conservative, Inspector: ins,
							TrackUsage: true, Tracer: tracer,
						}
					}
					legacyTr, newTr := obs.NewTracer(1<<16), obs.NewTracer(1<<16)
					want, err := legacyRun(jobs, mkCfg(legacyTr, insp.mk()))
					if err != nil {
						t.Fatal(err)
					}
					got, err := Run(jobs, mkCfg(newTr, insp.mk()))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("Run result diverged from legacy\nlegacy: %+v\nnew:    %+v",
							summarizeResult(want), summarizeResult(got))
					}
					if !reflect.DeepEqual(legacyTr.Events(), newTr.Events()) {
						t.Errorf("trace events diverged: legacy %d events, new %d events",
							len(legacyTr.Events()), len(newTr.Events()))
					}

					// The caller-driven Env path must match too: answer every
					// yield with the same decision rule Run used.
					ins := insp.mk()
					env := NewEnv()
					obsState, done, err := env.Reset(jobs, mkCfg(nil, nil))
					if err != nil {
						t.Fatal(err)
					}
					for !done {
						reject := ins != nil && ins(obsState)
						obsState, done = env.Step(reject)
					}
					envRes := env.Result()
					if ins == nil {
						// Env always yields; Run with a nil inspector never
						// consults. Only the inspection counters may differ.
						envRes.Inspections, envRes.Rejections = 0, 0
					}
					if !reflect.DeepEqual(want, envRes) {
						t.Errorf("Env-driven result diverged from legacy\nlegacy: %+v\nenv:    %+v",
							summarizeResult(want), summarizeResult(envRes))
					}
				})
			}
		}
	}
}

func summarizeResult(r Result) map[string]any {
	return map[string]any{
		"jobs": len(r.Results), "inspections": r.Inspections, "rejections": r.Rejections,
		"backfills": r.Backfills, "idle": r.IdleDelay, "usage": len(r.Usage),
	}
}

// TestEnvReuseAcrossEpisodes verifies a reused Env produces results
// identical to fresh ones (buffer reuse must never leak state between
// episodes).
func TestEnvReuseAcrossEpisodes(t *testing.T) {
	tr := workload.SDSCSP2Like(2000, 3)
	env := NewEnv()
	ins := scriptedInspector()
	for _, start := range []int{0, 100, 300, 100} {
		jobs := tr.Window(start, 150)
		want, err := Run(jobs, Config{MaxProcs: tr.MaxProcs, Policy: sched.SJF(), Backfill: true, Inspector: scriptedInspector()})
		if err != nil {
			t.Fatal(err)
		}
		obsState, done, err := env.Reset(jobs, Config{MaxProcs: tr.MaxProcs, Policy: sched.SJF(), Backfill: true})
		if err != nil {
			t.Fatal(err)
		}
		for !done {
			obsState, done = env.Step(ins(obsState))
		}
		got := env.Result()
		if !reflect.DeepEqual(want.Results, got.Results) || want.Rejections != got.Rejections {
			t.Fatalf("reused env diverged at window %d", start)
		}
	}
}

// cloneResult copies a Result out of Env-owned storage.
func cloneResult(r Result) Result {
	r.Results = append([]metrics.JobResult(nil), r.Results...)
	r.Usage = append([]UsagePoint(nil), r.Usage...)
	return r
}

// unmarked hides a policy's sched.TimeInvariant marker: embedding the
// interface promotes Name and Score only, so the Env re-scores it at every
// use, as it does a user-supplied policy.
type unmarked struct{ sched.Policy }

// TestEnvSnapshotRestore verifies that restoring a mid-episode snapshot and
// replaying the same decisions is bit-identical to the uninterrupted run —
// in the Env that took it, in a fresh Env, and in an Env whose previous
// episode ran the other kind of policy (stored scores vs re-scored) — and
// that one snapshot supports multiple divergent branches.
func TestEnvSnapshotRestore(t *testing.T) {
	tr := workload.SDSCSP2Like(2000, 7)
	jobs := tr.Window(50, 180)
	for _, tc := range []struct {
		name   string
		policy sched.Policy
		other  sched.Policy // what the cross-env target ran before the restore
	}{
		{"SJF", sched.SJF(), sched.NewSlurm(tr)},
		{"F1", sched.F1(), sched.NewSlurm(tr)},
		// The direction that breaks if Restore keeps the target's stale choice:
		// this snapshot's queue entries carry no scores.
		{"F1-unmarked", unmarked{sched.F1()}, sched.F1()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testEnvSnapshotRestore(t, jobs, tc.other,
				Config{MaxProcs: tr.MaxProcs, Policy: tc.policy, Backfill: true, TrackUsage: true})
		})
	}
}

func testEnvSnapshotRestore(t *testing.T, jobs []workload.Job, other sched.Policy, cfg Config) {
	ins := scriptedInspector()

	// Straight-through reference run.
	env := NewEnv()
	obsState, done, err := env.Reset(jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var decisions []bool
	for !done {
		d := ins(obsState)
		decisions = append(decisions, d)
		obsState, done = env.Step(d)
	}
	want := cloneResult(env.Result())
	if len(decisions) < 10 {
		t.Fatalf("test needs a meaningful decision count, got %d", len(decisions))
	}

	// Re-run to the midpoint, snapshot, finish; then restore and check both
	// the identical replay and a divergent branch.
	mid := len(decisions) / 2
	env2 := NewEnv()
	obsState, done, err = env2.Reset(jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < mid; i++ {
		obsState, done = env2.Step(decisions[i])
	}
	if done {
		t.Fatal("episode ended before midpoint")
	}
	snap := env2.Snapshot()
	for i := mid; !done; i++ {
		obsState, done = env2.Step(decisions[i])
	}
	if !reflect.DeepEqual(want, env2.Result()) {
		t.Fatal("straight-through replay diverged before any restore")
	}

	// Branch 1: restore and replay the original tail — must be identical,
	// whichever Env the snapshot lands in.
	ran := NewEnv()
	if _, err := RunEnv(ran, jobs, Config{MaxProcs: cfg.MaxProcs, Policy: other, Backfill: true}); err != nil {
		t.Fatal(err)
	}
	for _, target := range []struct {
		name string
		env  *Env
	}{{"same env", env2}, {"fresh env", NewEnv()}, {"env that ran " + other.Name(), ran}} {
		_, done = target.env.Restore(snap)
		for i := mid; !done; i++ {
			_, done = target.env.Step(decisions[i])
		}
		if !reflect.DeepEqual(want, target.env.Result()) {
			t.Fatalf("%s: restored replay diverged from the uninterrupted run", target.name)
		}
	}

	// Branch 2: restore and invert every remaining decision — a genuinely
	// different trajectory must still complete and start every job.
	obsState, done = env2.Restore(snap)
	inverted := 0
	rejLimited := func(s *State) bool {
		// stay under the cap so inversion cannot starve the episode
		return s.Rejections < 2 && !ins(s)
	}
	for !done {
		d := rejLimited(obsState)
		if d {
			inverted++
		}
		obsState, done = env2.Step(d)
	}
	branch := env2.Result()
	if len(branch.Results) != len(jobs) {
		t.Fatalf("divergent branch started %d of %d jobs", len(branch.Results), len(jobs))
	}
	if inverted > 0 && reflect.DeepEqual(want.Results, branch.Results) {
		t.Error("divergent branch produced identical schedule; snapshot state is suspect")
	}
}

// TestEnvStepPanicsWithoutDecision documents the Step contract.
func TestEnvStepPanicsWithoutDecision(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Step before Reset did not panic")
		}
	}()
	NewEnv().Step(false)
}

// TestNewStateDerivesRunnable covers the shared construction helper.
func TestNewStateDerivesRunnable(t *testing.T) {
	j := workload.Job{ID: 1, Est: 100, Procs: 8}
	q := []QueueItem{{Wait: 5, Est: 50, Procs: 2}}
	st := NewState(j, 30, 2, 16, 64, true, 3, q)
	if !st.Runnable || st.JobWait != 30 || st.Rejections != 2 || st.BackfillCount != 3 || len(st.Queue) != 1 {
		t.Fatalf("NewState fields wrong: %+v", st)
	}
	if st2 := NewState(j, 0, 0, 4, 64, false, 0, nil); st2.Runnable {
		t.Fatal("NewState derived Runnable=true for an oversubscribed job")
	}
}

// TestValidateJobs covers the hoisted validation helper.
func TestValidateJobs(t *testing.T) {
	good := []workload.Job{
		{ID: 1, Submit: 0, Run: 10, Est: 10, Procs: 2},
		{ID: 2, Submit: 5, Run: 10, Est: 10, Procs: 2},
	}
	if err := ValidateJobs(good, 4); err != nil {
		t.Fatal(err)
	}
	unsorted := []workload.Job{good[1], good[0]}
	if err := ValidateJobs(unsorted, 4); err == nil {
		t.Fatal("unsorted jobs passed validation")
	}
	if err := ValidateJobs(good, 1); err == nil {
		t.Fatal("oversized job passed validation")
	}
	// NoValidate must skip the check entirely (the caller vouches).
	if _, err := Run(unsorted, Config{MaxProcs: 4, Policy: sched.FCFS(), NoValidate: true}); err != nil {
		t.Fatalf("NoValidate still validated: %v", err)
	}
}
