package sim

import (
	"math"

	"schedinspector/internal/metrics"
	"schedinspector/internal/obs"
	"schedinspector/internal/sched"
	"schedinspector/internal/workload"
)

// envPhase is the resumable state machine position of an Env.
type envPhase uint8

const (
	envIdle  envPhase = iota // before the first Reset
	envYield                 // paused at a scheduling decision; Step expected
	envDone                  // episode complete; Result is final
)

// Env is the resumable simulator core: a step-based environment that pauses
// at every inspectable scheduling decision and hands control to the caller,
// instead of invoking a callback from inside a run-to-completion loop.
//
//	var env sim.Env
//	obs, done, err := env.Reset(jobs, cfg)
//	for !done {
//	    obs, done = env.Step(decide(obs)) // true rejects the decision
//	}
//	res := env.Result()
//
// The observation returned by Reset/Step is the same State an Inspector
// callback would receive; it is owned by the Env and valid until the next
// Step, Reset or Restore. An Env is not safe for concurrent use, but any
// number of Envs may run concurrently (each with its own Config.Policy
// instance when the policy is stateful).
//
// All internal buffers are retained across Reset, so a reused Env reaches a
// steady state where a full episode performs no heap allocations. The
// flip side: the Result returned by a previous episode aliases those
// buffers and is invalidated by the next Reset — copy it first if it must
// outlive the reuse.
type Env struct {
	cfg     Config
	jobs    []workload.Job // full episode sequence, sorted by submit (read-only)
	nextArr int            // index into jobs of the next future arrival
	queue   []waiting
	running runHeap
	free    int
	now     float64
	out     Result
	state   State // reused observation, refreshed at each yield

	interactive bool // yield at decision points (vs run straight through)
	scoreStored bool // Policy is sched.TimeInvariant: queue entries carry their score
	phase       envPhase
	decision    int // queue index awaiting a verdict while phase == envYield

	// Scratch buffers, retained across episodes.
	resScratch []runningJob   // reservation's clamped estimated-end copy
	jobScratch workload.Job   // escape-free pointer handoff to UsageObservers
	selScratch []workload.Job // queue view handed to sched.Selector policies
}

// NewEnv returns an empty environment; Reset starts the first episode.
func NewEnv() *Env { return &Env{} }

// Reset starts a new episode over jobs and advances to the first scheduling
// decision. It returns the first observation, or done=true when the episode
// ran to completion without ever needing a decision (no waiting jobs, or a
// negative MaxRejections cap). Config.Inspector is ignored: the caller is
// the inspector. Buffers from previous episodes are reused, invalidating
// any previously returned Result and State.
//
// It panics on invalid configuration and returns an error for invalid jobs
// (skipped when cfg.NoValidate is set).
func (e *Env) Reset(jobs []workload.Job, cfg Config) (*State, bool, error) {
	cfg.Inspector = nil
	return e.reset(jobs, cfg, true)
}

// reset is the shared initialization behind Reset (interactive) and Run
// (interactive only when a callback inspector is present).
func (e *Env) reset(jobs []workload.Job, cfg Config, interactive bool) (*State, bool, error) {
	if cfg.MaxProcs <= 0 {
		panic("sim: Config.MaxProcs must be positive")
	}
	if cfg.Policy == nil {
		panic("sim: Config.Policy is required")
	}
	if cfg.MaxInterval == 0 {
		cfg.MaxInterval = DefaultMaxInterval
	}
	if cfg.MaxRejections == 0 {
		cfg.MaxRejections = DefaultMaxRejections
	}
	if cfg.MaxRejections < 0 {
		cfg.MaxRejections = 0
	}
	if !cfg.NoValidate {
		if err := ValidateJobs(jobs, cfg.MaxProcs); err != nil {
			return nil, true, err
		}
	}
	if r, ok := cfg.Policy.(sched.Resetter); ok {
		r.Reset()
	}
	e.cfg = cfg
	e.jobs = jobs
	e.nextArr = 0
	e.queue = e.queue[:0]
	e.running = e.running[:0]
	e.free = cfg.MaxProcs
	e.now = 0
	results := e.out.Results[:0]
	if cap(results) < len(jobs) {
		results = make([]metrics.JobResult, 0, len(jobs))
	}
	e.out = Result{Results: results, Usage: e.out.Usage[:0]}
	e.interactive = interactive
	_, e.scoreStored = cfg.Policy.(sched.TimeInvariant)
	e.phase = envIdle
	e.decision = -1

	e.ingestArrivals()
	e.recordUsage() // initial sample at t=0 for the usage timeline
	if e.advance() {
		return &e.state, false, nil
	}
	return nil, true, nil
}

// Step answers the pending decision — reject=true sends the picked job back
// to the waiting queue, reject=false lets it proceed — and advances the
// simulation to the next decision point. It returns the next observation,
// or done=true when the episode completed. It panics when no decision is
// pending (before Reset, or after done).
func (e *Env) Step(reject bool) (*State, bool) {
	if e.phase != envYield {
		panic("sim: Step without a pending decision")
	}
	idx := e.decision
	w := &e.queue[idx]
	if t := e.cfg.Tracer; t != nil {
		kind := obs.EventAccept
		if reject {
			kind = obs.EventReject
		}
		t.Emit(obs.Event{
			Kind: kind, Time: e.now, JobID: w.job.ID, Procs: w.job.Procs,
			Wait: e.now - w.job.Submit, FreeProcs: e.free, QueueLen: len(e.queue),
			Rejections: w.rejects,
		})
	}
	if reject {
		w.rejects++
		e.out.Rejections++
		before := e.now
		t := e.now + e.cfg.MaxInterval
		if ev, ok := e.nextEvent(); ok && ev < t {
			t = ev
		}
		e.out.IdleDelay += t - before
		e.advanceTo(t)
	} else {
		e.scheduleJob(idx)
	}
	if e.advance() {
		return &e.state, false
	}
	return nil, true
}

// Result returns the episode outcome accumulated so far; it is final once
// Step (or Reset) reported done. The slices alias Env-owned buffers and are
// invalidated by the next Reset.
func (e *Env) Result() Result { return e.out }

// Done reports whether the current episode has run to completion.
func (e *Env) Done() bool { return e.phase == envDone }

// Now returns the current simulation time — the clock value callers stamp
// into spans that bracket env activity (episode and epoch spans).
func (e *Env) Now() float64 { return e.now }

// advance runs the simulation forward until the next inspectable scheduling
// decision (returning true, with e.state filled and e.decision set) or the
// end of the episode (returning false). Non-interactive episodes never
// yield; decisions whose job already hit the rejection cap proceed without
// consultation, exactly as the MAX_REJECTION_TIMES rule of §3.2 prescribes.
func (e *Env) advance() bool {
	for {
		e.ingestArrivals()
		// A scheduling decision requires waiting jobs and at least one free
		// processor; a saturated cluster makes no picks (this matches the
		// paper's Figure 1 example, where J1 is not considered while the
		// cluster is full and loses to the later-arriving J2).
		if len(e.queue) == 0 || e.free == 0 {
			t, ok := e.nextEvent()
			if !ok {
				e.phase = envDone
				return false // all jobs started; running ones have recorded results
			}
			e.advanceTo(t)
			continue
		}
		idx := e.pickTop()
		if t := e.cfg.Tracer; t != nil {
			w := &e.queue[idx]
			t.Emit(obs.Event{
				Kind: obs.EventSchedPoint, Time: e.now, JobID: w.job.ID, Procs: w.job.Procs,
				Wait: e.now - w.job.Submit, FreeProcs: e.free, QueueLen: len(e.queue),
			})
		}
		if e.interactive && e.queue[idx].rejects < e.cfg.MaxRejections {
			e.fillState(idx)
			e.out.Inspections++
			e.decision = idx
			e.phase = envYield
			return true
		}
		e.scheduleJob(idx)
	}
}

// fillState refreshes the reusable observation for queue[idx].
func (e *Env) fillState(idx int) {
	w := &e.queue[idx]
	st := &e.state
	st.Now = e.now
	st.Job = w.job
	st.JobWait = e.now - w.job.Submit
	st.Rejections = w.rejects
	st.FreeProcs = e.free
	st.TotalProcs = e.cfg.MaxProcs
	st.Runnable = w.job.Procs <= e.free
	st.BackfillEnabled = e.cfg.Backfill
	st.BackfillCount = 0
	if e.cfg.Backfill {
		st.BackfillCount = e.countBackfillable(idx)
	}
	st.Queue = st.Queue[:0]
	for i := range e.queue {
		if i == idx {
			continue
		}
		q := &e.queue[i]
		st.Queue = append(st.Queue, QueueItem{
			Wait:  e.now - q.job.Submit,
			Est:   q.job.Est,
			Procs: q.job.Procs,
		})
	}
}

// pickTop returns the index of the queue job the base policy schedules
// next. Policies implementing sched.Selector choose directly from the
// queue; otherwise the pick is lowest score, ties broken by smaller job ID.
func (e *Env) pickTop() int {
	if sel, ok := e.cfg.Policy.(sched.Selector); ok {
		jobs := e.selScratch[:0]
		for i := range e.queue {
			jobs = append(jobs, e.queue[i].job)
		}
		e.selScratch = jobs
		if idx := sel.Select(jobs, e.now, e.free, e.cfg.MaxProcs); idx >= 0 && idx < len(e.queue) {
			return idx
		}
	}
	best := 0
	bestScore := e.score(0)
	for i := 1; i < len(e.queue); i++ {
		sc := e.score(i)
		if sc < bestScore || (sc == bestScore && e.queue[i].job.ID < e.queue[best].job.ID) {
			best, bestScore = i, sc
		}
	}
	return best
}

// score returns the base policy's score of queue[i] at the current time: the
// value stored at arrival for a sched.TimeInvariant policy, a fresh Score
// call for any other (Slurm, learned and user policies). It is the only
// reader of either, so every ordering decision — scheduling point, backfill
// probe, conservative plan — sees the same choice.
func (e *Env) score(i int) float64 {
	if e.scoreStored {
		return e.queue[i].score
	}
	return e.cfg.Policy.Score(&e.queue[i].job, e.now)
}

// scheduleJob commits to starting queue[idx]: immediately if resources
// allow, otherwise it reserves the job and waits for completions, running
// EASY backfilling meanwhile.
func (e *Env) scheduleJob(idx int) {
	if e.queue[idx].job.Procs <= e.free {
		e.startJob(idx)
		return
	}
	// The job cannot run yet. It holds a reservation; other queue jobs may
	// backfill around it until enough resources free up.
	reservedID := e.queue[idx].job.ID
	for {
		i := e.indexOf(reservedID)
		if e.queue[i].job.Procs <= e.free {
			e.startJob(i)
			return
		}
		if e.cfg.Backfill {
			if e.cfg.Conservative {
				e.backfillConservative(reservedID)
			} else {
				e.backfill(reservedID)
			}
			i = e.indexOf(reservedID)
			if e.queue[i].job.Procs <= e.free {
				e.startJob(i)
				return
			}
		}
		t, ok := e.nextEvent()
		if !ok {
			// Cannot happen with valid jobs: free < procs <= MaxProcs implies
			// something is running, so a completion event exists.
			panic("sim: reserved job starved with no future events")
		}
		e.advanceTo(t)
	}
}

// indexOf finds a queued job by ID. The queue is small; linear scan is fine.
func (e *Env) indexOf(id int) int {
	for i := range e.queue {
		if e.queue[i].job.ID == id {
			return i
		}
	}
	panic("sim: reserved job vanished from queue")
}

// startJob starts queue[idx] at the current time and removes it from the
// queue.
func (e *Env) startJob(idx int) {
	w := e.queue[idx]
	j := w.job
	if j.Procs > e.free {
		panic("sim: startJob without resources")
	}
	e.free -= j.Procs
	e.running.push(runningJob{end: e.now + j.Run, estEnd: e.now + j.Est, procs: j.Procs, id: j.ID})
	e.out.Results = append(e.out.Results, metrics.JobResult{
		ID: j.ID, Submit: j.Submit, Start: e.now, End: e.now + j.Run,
		Run: j.Run, Est: j.Est, Procs: j.Procs,
	})
	if ob, ok := e.cfg.Policy.(sched.UsageObserver); ok {
		// Hand the observer a pointer to an env-owned scratch copy: a local
		// escaping through the interface call would cost one heap allocation
		// per started job. Observers must not retain the pointer.
		e.jobScratch = j
		ob.ObserveStart(&e.jobScratch, e.now)
	}
	e.queue = append(e.queue[:idx], e.queue[idx+1:]...)
	if t := e.cfg.Tracer; t != nil {
		t.Emit(obs.Event{
			Kind: obs.EventJobStart, Time: e.now, JobID: j.ID, Procs: j.Procs,
			Wait: e.now - j.Submit, FreeProcs: e.free, QueueLen: len(e.queue),
		})
	}
	e.recordUsage()
}

// reservation computes the EASY shadow time and extra processors for the
// reserved job: the earliest time (by estimates) it could start, and how
// many processors would remain free at that time after it starts. The
// clamped copy of the running set lives in a reusable scratch buffer —
// reservation runs at every backfill pass and every BackfillCount feature,
// so a per-call allocation here is what used to dominate the decision hot
// path.
func (e *Env) reservation(reservedProcs int) (shadow float64, extra int) {
	if reservedProcs <= e.free {
		return e.now, e.free - reservedProcs
	}
	ends := append(e.resScratch[:0], e.running...)
	e.resScratch = ends
	// sort by estimated end; a running job that exceeded its estimate frees
	// its processors "now" for planning purposes (it may end any moment).
	for i := range ends {
		if ends[i].estEnd < e.now {
			ends[i].estEnd = e.now
		}
	}
	sortByEstEnd(ends)
	avail := e.free
	for _, r := range ends {
		avail += r.procs
		if avail >= reservedProcs {
			return r.estEnd, avail - reservedProcs
		}
	}
	// All estimates insufficient (cannot happen when procs <= MaxProcs).
	return math.Inf(1), 0
}

func sortByEstEnd(rs []runningJob) {
	// insertion sort: running sets are small and mostly ordered
	for i := 1; i < len(rs); i++ {
		for k := i; k > 0 && rs[k].estEnd < rs[k-1].estEnd; k-- {
			rs[k], rs[k-1] = rs[k-1], rs[k]
		}
	}
}

// backfill starts every waiting job (in base-policy order) that fits in the
// currently free processors and does not delay the reserved job's shadow
// start: it must either finish (by estimate) before the shadow time or use
// only the extra processors.
func (e *Env) backfill(reservedID int) {
	i := e.indexOf(reservedID)
	shadow, extra := e.reservation(e.queue[i].job.Procs)
	for {
		idx := e.pickBackfillable(reservedID, shadow, extra)
		if idx < 0 {
			return
		}
		procs := e.queue[idx].job.Procs
		if procs <= extra {
			extra -= procs
		}
		e.emitBackfill(idx)
		e.startJob(idx)
		e.out.Backfills++
	}
}

// emitBackfill traces that queue[idx] is about to start via backfilling
// (followed by its job_start event).
func (e *Env) emitBackfill(idx int) {
	t := e.cfg.Tracer
	if t == nil {
		return
	}
	j := &e.queue[idx].job
	t.Emit(obs.Event{
		Kind: obs.EventBackfill, Time: e.now, JobID: j.ID, Procs: j.Procs,
		Wait: e.now - j.Submit, FreeProcs: e.free, QueueLen: len(e.queue),
	})
}

// pickBackfillable returns the best-priority queue index eligible for
// backfilling, or -1.
func (e *Env) pickBackfillable(reservedID int, shadow float64, extra int) int {
	best := -1
	var bestScore float64
	for i := range e.queue {
		j := &e.queue[i].job
		if j.ID == reservedID || j.Procs > e.free {
			continue
		}
		if e.now+j.Est > shadow && j.Procs > extra {
			continue
		}
		sc := e.score(i)
		if best < 0 || sc < bestScore || (sc == bestScore && j.ID < e.queue[best].job.ID) {
			best, bestScore = i, sc
		}
	}
	return best
}

// countBackfillable counts waiting jobs (excluding queue[idx]) that could
// backfill if queue[idx]'s decision proceeded — the "Backfilling
// Contributions" feature of §3.3. It is a static count against the current
// shadow window; no jobs are started.
func (e *Env) countBackfillable(idx int) int {
	shadow, extra := e.reservation(e.queue[idx].job.Procs)
	free := e.free
	if e.queue[idx].job.Procs <= e.free {
		free -= e.queue[idx].job.Procs // the job starts; others see the rest
	}
	n := 0
	for i := range e.queue {
		if i == idx {
			continue
		}
		j := &e.queue[i].job
		if j.Procs > free {
			continue
		}
		if e.now+j.Est <= shadow || j.Procs <= extra {
			n++
		}
	}
	return n
}

// nextEvent returns the earliest future event time (arrival or completion).
func (e *Env) nextEvent() (float64, bool) {
	t := math.Inf(1)
	if e.nextArr < len(e.jobs) {
		t = e.jobs[e.nextArr].Submit
	}
	if len(e.running) > 0 && e.running[0].end < t {
		t = e.running[0].end
	}
	if math.IsInf(t, 1) {
		return 0, false
	}
	return t, true
}

// advanceTo moves the clock to t, completing jobs and ingesting arrivals on
// the way.
func (e *Env) advanceTo(t float64) {
	if t < e.now {
		panic("sim: time going backwards")
	}
	e.now = t
	for len(e.running) > 0 && e.running[0].end <= t {
		r := e.running.pop()
		e.free += r.procs
		if tr := e.cfg.Tracer; tr != nil {
			tr.Emit(obs.Event{
				Kind: obs.EventJobEnd, Time: r.end, JobID: r.id, Procs: r.procs,
				FreeProcs: e.free, QueueLen: len(e.queue),
			})
		}
	}
	e.ingestArrivals()
	e.recordUsage()
}

// ingestArrivals moves pending jobs submitted at or before now into the
// waiting queue, scoring each once on the way in when the policy's score
// cannot change while the job waits.
func (e *Env) ingestArrivals() {
	for e.nextArr < len(e.jobs) && e.jobs[e.nextArr].Submit <= e.now {
		e.queue = append(e.queue, waiting{job: e.jobs[e.nextArr]})
		e.nextArr++
		if e.scoreStored {
			// Score through the queue slot: a local waiting would escape
			// through the interface call, one heap allocation per arrival.
			w := &e.queue[len(e.queue)-1]
			w.score = e.cfg.Policy.Score(&w.job, e.now)
		}
	}
}

// runHeap is a binary min-heap on actual completion time. Push and pop are
// hand-rolled with the exact sift order of container/heap — the array
// layout must match the legacy implementation bit-for-bit because
// reservation stable-sorts a copy of it, where tie order matters — but on
// the concrete element type, so pushing a runningJob does not box it into
// an interface. That boxing was one heap allocation per started job, which
// the steady-state zero-allocation contract of Env cannot afford.
type runHeap []runningJob

func (h *runHeap) push(r runningJob) {
	*h = append(*h, r)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(s[j].end < s[i].end) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *runHeap) pop() runningJob {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].end < s[j].end {
			j = j2
		}
		if !(s[j].end < s[i].end) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	v := s[n]
	*h = s[:n]
	return v
}
