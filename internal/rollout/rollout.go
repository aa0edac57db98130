// Package rollout is the one driver every simulation fan-out in the
// codebase goes through: the SchedInspector trainer and test-time
// evaluation both submit batches of episodes here instead of carrying their
// own worker-pool and callback plumbing.
//
// Every worker runs the same loop on its own: it claims episodes from a
// shared counter in slot order, keeps a bounded window of them live on
// resumable sim.Envs it recycles, and hands the pending scheduling decisions
// of that window, one wave at a time, to its own Decide. A neural inspector
// therefore evaluates a wave with one matrix-shaped forward pass instead of
// one scalar forward per decision, and no worker ever waits for another.
//
// Nothing of an episode outlives it but its Outcome: the worker writes the
// episode's trace window into a job buffer it recycles with the Env, and
// reduces the Env's per-job results to a summary before the Env goes back on
// its free list. A run's memory therefore scales with the live window, not
// with episodes x jobs.
//
// Determinism: an episode's outcome is a pure function of (its jobs, its
// policy instance, its decision sequence), and Decide implementations keyed
// on per-slot RNG streams make each decision sequence a pure function of
// the slot. Wave composition, window size and worker count therefore never
// change any result — workers=1 and workers=N are bit-identical, which the
// equivalence suite pins.
package rollout

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"schedinspector/internal/metrics"
	"schedinspector/internal/obs"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

// Episode is one simulation request over the run's trace: the Config.SeqLen
// jobs of Config.Trace from index Start, re-based to submit at time 0
// (workload.Trace.Window).
type Episode struct {
	Start int
	Cfg   sim.Config // Cfg.Inspector must be nil; decisions come from Decide

	// Interactive episodes yield every scheduling decision to Decide.
	// Non-interactive ones run straight to completion (the baseline /
	// uninspected arm of a comparison) and never appear in a wave.
	Interactive bool
}

// Outcome is what survives an episode: the metrics summary of its per-job
// results (over Cfg.MaxProcs processors) and the inspector's decision
// counts. A failed episode leaves the zero Outcome.
type Outcome struct {
	Summary     metrics.Summary
	Inspections int
	Rejections  int
}

// Pending is one episode slot awaiting a decision. State points into the
// slot's live environment: it is valid only during the Decide call that
// delivers it, so implementations must copy anything they keep (the
// batched sampler copies features out immediately).
type Pending struct {
	Slot  int
	State *sim.State
}

// Decide receives one wave — the interactive episodes of one worker's window
// currently stopped at a scheduling point, in ascending slot order — and
// must fill rejects[i] with the decision for pending[i]. A worker never
// calls its Decide concurrently with itself, but different workers call
// theirs concurrently, each over slots no other worker holds.
type Decide func(pending []Pending, rejects []bool)

// liveWindow is how many interactive episodes one worker keeps live, and so
// the most rows one Decide call sees. Evaluate 500 x 256 on one CPU takes
// the same time from 8 to 128 and 2-7 % longer at 256 and 500.
const liveWindow = 64

// Config parameterizes one driver run.
type Config struct {
	// Trace and SeqLen name every episode's jobs: episode e simulates
	// Trace.Window(e.Start, SeqLen). The trace must be sorted by submit;
	// set Cfg.NoValidate on episodes whose trace was validated once.
	Trace  *workload.Trace
	SeqLen int

	// Workers is how many goroutines run the wave loop (0 = one per CPU).
	// Workers == 1 is a semantic switch, not just a parallelism knob:
	// episodes run strictly one at a time in slot order on the calling
	// goroutine, with single-slot waves — required when episodes share one
	// stateful, uncloneable policy instance, whose consultation order must
	// match a sequential loop. With Workers > 1 up to Workers x 64 episodes
	// are live at once, so stateful policies need per-episode instances
	// (see PolicyClones).
	Workers int

	// NewDecide returns the Decide of worker w in [0, Workers); the driver
	// calls it once per worker, so each Decide may own scratch state.
	// Required if any episode is interactive.
	NewDecide func(w int) Decide

	// Ring attaches the flight recorder: each episode slot gets one
	// "episode" span, a child of SpanRoot whose ID is derived from
	// (SpanRoot, slot), so IDs are identical at any worker count. The
	// decisions themselves are recorded by the caller's Decide, not here.
	// Wall timestamps and ring order remain execution-dependent; only
	// identity is deterministic.
	Ring     *obs.TraceRing
	SpanRoot obs.SpanID

	// SlotBase offsets every slot identity the run exposes: Pending.Slot,
	// episode span IDs and slot attributes all report SlotBase+i for the
	// i-th episode of this call. A distributed trainer rolling out the
	// trajectory shard [lo, hi) passes SlotBase=lo so each episode keeps
	// its global trajectory index — the key its RNG stream, step log and
	// flight records are derived from — no matter which process runs it.
	// Zero (the single-process default) leaves slots equal to episode
	// positions.
	SlotBase int
}

// Report carries the run's timing observations for telemetry: Busy is the
// sum over workers of the time from a loop's start to the end of its last
// episode (zero for a worker that found nothing to claim) and Wall the
// elapsed time, so Busy never exceeds Workers x Wall. EpisodeSeconds
// (indexed by slot) is each episode's share of its worker's loop, inference
// included: the time between two changes of the worker's live set is split
// evenly over that set — the clock is read when an episode ends, not per
// Step — so the shares sum to Busy.
type Report struct {
	Busy, Wall     time.Duration
	EpisodeSeconds []float64
}

// Run drives all episodes to completion and returns their outcomes in slot
// order. Episodes that fail leave a zero Outcome; the first error in slot
// order is returned after every other episode has still been given the
// chance to finish, mirroring how the pre-driver engines reduced worker
// errors.
func Run(eps []Episode, cfg Config) ([]Outcome, Report, error) {
	if workers := min(ResolveWorkers(cfg.Workers), len(eps)); workers > 1 {
		return run(eps, cfg, workers, liveWindow)
	}
	return run(eps, cfg, 1, 1)
}

// envBuf is an Env with the buffer its episode's window is written into.
// The two are recycled together: the Env reads the jobs until its episode
// ends.
type envBuf struct {
	env  *sim.Env
	jobs []workload.Job
}

// live is one interactive episode in a worker's window.
type live struct {
	i int // episode position; its slot is SlotBase+i
	envBuf
	state *sim.State // the pending decision, nil once the episode is done
	span  obs.Span   // open episode span when a ring is attached
}

// run starts workers copies of the wave loop (one, on the calling goroutine,
// when workers is 1): claim the next episode, run it straight through or
// Reset it into the window, and once window episodes are live or none is
// left to claim, Decide the window and Step each member.
func run(eps []Episode, cfg Config, workers, window int) ([]Outcome, Report, error) {
	n := len(eps)
	rep := Report{EpisodeSeconds: make([]float64, n)}
	for i := range eps {
		if cfg.Trace == nil || !cfg.Trace.CanWindow(eps[i].Start, cfg.SeqLen) {
			return nil, rep, fmt.Errorf("rollout: episode %d starts at %d; Config.Trace has no window of SeqLen=%d jobs there", i, eps[i].Start, cfg.SeqLen)
		}
		if eps[i].Cfg.Inspector != nil {
			return nil, rep, fmt.Errorf("rollout: episode %d sets Cfg.Inspector; decisions must come from Decide", i)
		}
		if eps[i].Interactive && cfg.NewDecide == nil {
			return nil, rep, fmt.Errorf("rollout: episode %d is interactive but Config.NewDecide is nil", i)
		}
	}
	outcomes := make([]Outcome, n)
	errs := make([]error, n)
	var next atomic.Int64 // the next unclaimed episode
	busy := make([]time.Duration, workers)
	loop := func(w int) {
		var decide Decide
		if cfg.NewDecide != nil {
			decide = cfg.NewDecide(w)
		}
		var free []envBuf
		lives := make([]live, 0, window)
		pending := make([]Pending, 0, window)
		rejects := make([]bool, window)
		start := time.Now()
		last := start
		defer func() { busy[w] = last.Sub(start) }()
		lap := func() float64 { // seconds since the previous lap
			now := time.Now()
			d := now.Sub(last).Seconds()
			last = now
			return d
		}
		// finish reduces a completed episode to its outcome and frees its
		// env and job buffer.
		finish := func(lv *live) {
			res := lv.env.Result()
			o := Outcome{Summary: res.Summary(eps[lv.i].Cfg.MaxProcs), Inspections: res.Inspections, Rejections: res.Rejections}
			outcomes[lv.i] = o
			if cfg.Ring != nil {
				lv.span.Attrs = append(lv.span.Attrs,
					obs.Attr{Key: "slot", Num: float64(cfg.SlotBase + lv.i)},
					obs.Attr{Key: "jobs", Num: float64(cfg.SeqLen)},
					obs.Attr{Key: "inspections", Num: float64(o.Inspections)},
					obs.Attr{Key: "rejections", Num: float64(o.Rejections)},
				)
				lv.span.End(lv.env.Now())
				cfg.Ring.EmitSpan(&lv.span)
			}
			free = append(free, lv.envBuf)
		}
		for {
			for len(lives) < window {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				lv := live{i: i}
				if k := len(free) - 1; k >= 0 {
					lv.envBuf, free = free[k], free[:k]
				} else {
					lv.env = sim.NewEnv()
				}
				lv.jobs = cfg.Trace.WindowInto(lv.jobs, eps[i].Start, cfg.SeqLen)
				if cfg.Ring != nil {
					id := obs.DeriveSpanID(uint64(cfg.SpanRoot), uint64(cfg.SlotBase+i))
					lv.span = obs.StartSpan("episode", id, cfg.SpanRoot, 0)
				}
				if eps[i].Interactive {
					var done bool
					if lv.state, done, errs[i] = lv.env.Reset(lv.jobs, eps[i].Cfg); errs[i] == nil && !done {
						lives = append(lives, lv)
						continue
					}
				} else {
					_, errs[i] = sim.RunEnv(lv.env, lv.jobs, eps[i].Cfg)
				}
				if errs[i] == nil {
					finish(&lv)
				} else {
					free = append(free, lv.envBuf)
				}
				rep.EpisodeSeconds[i] = lap()
			}
			if len(lives) == 0 {
				return // nothing live and nothing left to claim
			}
			pending = pending[:0]
			for k := range lives {
				pending = append(pending, Pending{Slot: cfg.SlotBase + lives[k].i, State: lives[k].state})
			}
			decide(pending, rejects[:len(lives)])
			ended := 0
			for k := range lives {
				var done bool
				if lives[k].state, done = lives[k].env.Step(rejects[k]); done {
					ended++
				}
			}
			if ended == 0 {
				continue
			}
			// The live set changes here, so the time it shared is settled.
			share := lap() / float64(len(lives))
			keep := lives[:0]
			for k := range lives {
				rep.EpisodeSeconds[lives[k].i] += share
				if lives[k].state == nil {
					finish(&lives[k])
				} else {
					keep = append(keep, lives[k])
				}
			}
			lives = keep
		}
	}
	t0 := time.Now()
	if workers == 1 {
		loop(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				loop(w)
			}()
		}
		wg.Wait()
	}
	rep.Wall = time.Since(t0)
	for _, b := range busy {
		rep.Busy += b
	}
	for _, err := range errs {
		if err != nil {
			return outcomes, rep, err
		}
	}
	return outcomes, rep, nil
}
