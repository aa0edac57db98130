// Package rollout is the one driver every simulation fan-out in the
// codebase goes through: the SchedInspector trainer, test-time evaluation,
// and the RL-scheduler baseline all submit batches of episodes here instead
// of carrying their own worker-pool and callback plumbing.
//
// The driver runs each episode on a resumable sim.Env and surfaces the
// scheduling decisions of ALL concurrently-running episodes together, one
// wave at a time, to a single Decide callback. A neural inspector can
// therefore evaluate an entire wave with one matrix-shaped forward pass
// instead of one scalar forward per decision.
//
// Determinism: an episode's outcome is a pure function of (its jobs, its
// policy instance, its decision sequence), and Decide implementations keyed
// on per-slot RNG streams make each decision sequence a pure function of
// the slot. Wave composition and worker count therefore never change any
// result — workers=1 and workers=N are bit-identical, which the
// equivalence suite pins.
package rollout

import (
	"fmt"
	"time"

	"schedinspector/internal/metrics"
	"schedinspector/internal/obs"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

// Episode is one simulation request.
type Episode struct {
	Jobs []workload.Job
	Cfg  sim.Config // Cfg.Inspector must be nil; decisions come from Decide

	// Interactive episodes yield every scheduling decision to Decide.
	// Non-interactive ones run straight to completion (the baseline /
	// uninspected arm of a comparison) and never appear in a wave.
	Interactive bool
}

// Pending is one episode slot awaiting a decision. State points into the
// slot's live environment: it is valid only during the Decide call that
// delivers it, so implementations must copy anything they keep (the
// batched sampler copies features out immediately).
type Pending struct {
	Slot  int
	State *sim.State
}

// Decide receives one wave — every interactive episode currently stopped at
// a scheduling point, in ascending slot order — and must fill rejects[i]
// with the decision for pending[i]. It is always called from the
// coordinating goroutine, never concurrently with itself or with episode
// stepping.
type Decide func(pending []Pending, rejects []bool)

// Config parameterizes one driver run.
type Config struct {
	// Workers is the stepping fan-out (0 = one per CPU). Workers == 1 is a
	// semantic switch, not just a parallelism knob: episodes run strictly
	// one at a time in slot order, with single-slot waves — required when
	// episodes share one stateful, uncloneable policy instance (the
	// RL-scheduler baseline while sampling), whose consultation order must
	// match a sequential loop. With Workers > 1 all episodes are live
	// concurrently, so stateful policies need per-episode instances (see
	// PolicyClones).
	Workers int

	// Decide supplies decisions for interactive episodes. Required if any
	// episode is interactive.
	Decide Decide

	// Ring attaches the flight recorder: each episode slot gets an
	// "episode" span (child of SpanRoot, ID derived from (SpanRoot, slot))
	// and its environment emits per-decision child spans. The driver owns
	// span attachment — it overrides any Ring/SpanParent set on episode
	// configs — so IDs stay a pure function of (SpanRoot, slot, decision
	// seq) and are identical at any worker count. Wall timestamps and ring
	// order remain execution-dependent; only identity is deterministic.
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

// Report carries the run's timing observations for telemetry: summed
// worker busy time, wall-clock elapsed, and per-episode simulation seconds
// (indexed by slot).
type Report struct {
	Busy, Wall     time.Duration
	EpisodeSeconds []float64
}

// Run drives all episodes to completion and returns their results in slot
// order. Episodes that fail leave a zero Result; the first error in slot
// order is returned after every other episode has still been given the
// chance to finish, mirroring how the pre-driver engines reduced worker
// errors.
func Run(eps []Episode, cfg Config) ([]sim.Result, Report, error) {
	n := len(eps)
	rep := Report{EpisodeSeconds: make([]float64, n)}
	results := make([]sim.Result, n)
	errs := make([]error, n)
	for i := range eps {
		if eps[i].Cfg.Inspector != nil {
			return nil, rep, fmt.Errorf("rollout: episode %d sets Cfg.Inspector; decisions must come from Decide", i)
		}
		if eps[i].Interactive && cfg.Decide == nil {
			return nil, rep, fmt.Errorf("rollout: episode %d is interactive but Config.Decide is nil", i)
		}
	}
	if cfg.Ring != nil {
		// Copy the episode slice before attaching span plumbing so the
		// caller's Episodes are never mutated.
		eps = append([]Episode(nil), eps...)
		for i := range eps {
			eps[i].Cfg.Ring = cfg.Ring
			eps[i].Cfg.SpanParent = obs.DeriveSpanID(uint64(cfg.SpanRoot), uint64(cfg.SlotBase+i))
		}
	}
	workers := ResolveWorkers(cfg.Workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		runSequential(eps, cfg, results, errs, &rep)
	} else {
		runWaves(eps, cfg, workers, results, errs, &rep)
	}
	for i := range errs {
		if errs[i] != nil {
			return results, rep, errs[i]
		}
	}
	return results, rep, nil
}

// ownResult detaches a Result from the env buffers that back it, so the env
// can be reset for the next episode.
func ownResult(r sim.Result) sim.Result {
	r.Results = append([]metrics.JobResult(nil), r.Results...)
	if r.Usage != nil {
		r.Usage = append([]sim.UsagePoint(nil), r.Usage...)
	}
	return r
}

// endEpisodeSpan closes the span bracketing one finished episode and emits
// it to the ring. Wall duration covers the episode's execution; sim
// duration its simulated makespan.
func endEpisodeSpan(cfg *Config, esp obs.Span, slot, jobs int, simEnd float64, res *sim.Result) {
	esp.Attrs = append(esp.Attrs,
		obs.Attr{Key: "slot", Num: float64(slot)},
		obs.Attr{Key: "jobs", Num: float64(jobs)},
		obs.Attr{Key: "inspections", Num: float64(res.Inspections)},
		obs.Attr{Key: "rejections", Num: float64(res.Rejections)},
	)
	esp.End(simEnd)
	cfg.Ring.EmitSpan(&esp)
}

// runSequential executes episodes one at a time in slot order on a single
// reused environment, yielding single-slot waves.
func runSequential(eps []Episode, cfg Config, results []sim.Result, errs []error, rep *Report) {
	start := time.Now()
	env := sim.NewEnv()
	pending := make([]Pending, 1)
	rejects := make([]bool, 1)
	for i := range eps {
		t0 := time.Now()
		var esp obs.Span
		if cfg.Ring != nil {
			esp = obs.StartSpan("episode", eps[i].Cfg.SpanParent, cfg.SpanRoot, 0)
		}
		if !eps[i].Interactive {
			r, err := sim.RunEnv(env, eps[i].Jobs, eps[i].Cfg)
			if err == nil {
				r = ownResult(r)
			}
			results[i], errs[i] = r, err
		} else if obsState, done, err := env.Reset(eps[i].Jobs, eps[i].Cfg); err != nil {
			errs[i] = err
		} else {
			for !done {
				pending[0] = Pending{Slot: cfg.SlotBase + i, State: obsState}
				cfg.Decide(pending, rejects)
				obsState, done = env.Step(rejects[0])
			}
			results[i] = ownResult(env.Result())
		}
		if cfg.Ring != nil && errs[i] == nil {
			endEpisodeSpan(&cfg, esp, cfg.SlotBase+i, len(eps[i].Jobs), env.Now(), &results[i])
		}
		rep.EpisodeSeconds[i] = time.Since(t0).Seconds()
	}
	rep.Wall = time.Since(start)
	rep.Busy = rep.Wall
}

// runWaves executes all episodes concurrently: a parallel init phase (full
// runs for non-interactive episodes, Reset-to-first-decision for
// interactive ones), then wave rounds — one Decide call over every pending
// slot followed by a parallel Step of each live environment.
func runWaves(eps []Episode, cfg Config, workers int, results []sim.Result, errs []error, rep *Report) {
	n := len(eps)
	envs := make([]*sim.Env, n)
	states := make([]*sim.State, n)
	done := make([]bool, n)
	seqEnvs := make([]*sim.Env, workers) // per-worker envs for non-interactive runs
	var espans []obs.Span                // open episode spans, indexed by slot
	if cfg.Ring != nil {
		espans = make([]obs.Span, n)
	}

	busy, wall := RunIndexed(workers, n, func(w, i int) {
		t0 := time.Now()
		if espans != nil {
			espans[i] = obs.StartSpan("episode", eps[i].Cfg.SpanParent, cfg.SpanRoot, 0)
		}
		if eps[i].Interactive {
			envs[i] = sim.NewEnv()
			states[i], done[i], errs[i] = envs[i].Reset(eps[i].Jobs, eps[i].Cfg)
		} else {
			if seqEnvs[w] == nil {
				seqEnvs[w] = sim.NewEnv()
			}
			r, err := sim.RunEnv(seqEnvs[w], eps[i].Jobs, eps[i].Cfg)
			if err == nil {
				r = ownResult(r)
			}
			results[i], errs[i] = r, err
			if espans != nil && err == nil {
				endEpisodeSpan(&cfg, espans[i], cfg.SlotBase+i, len(eps[i].Jobs), seqEnvs[w].Now(), &results[i])
			}
		}
		rep.EpisodeSeconds[i] += time.Since(t0).Seconds()
	})
	rep.Busy += busy
	rep.Wall += wall

	live := make([]int, 0, n)
	for i := range eps {
		if !eps[i].Interactive || errs[i] != nil {
			continue
		}
		if done[i] {
			results[i] = envs[i].Result()
			if espans != nil {
				endEpisodeSpan(&cfg, espans[i], cfg.SlotBase+i, len(eps[i].Jobs), envs[i].Now(), &results[i])
			}
			continue
		}
		live = append(live, i)
	}

	pending := make([]Pending, 0, len(live))
	rejects := make([]bool, len(live))
	for len(live) > 0 {
		pending = pending[:0]
		for _, i := range live {
			pending = append(pending, Pending{Slot: cfg.SlotBase + i, State: states[i]})
		}
		rejects = rejects[:len(pending)]
		cfg.Decide(pending, rejects)

		busy, wall := RunIndexed(workers, len(live), func(_, k int) {
			i := live[k]
			t0 := time.Now()
			states[i], done[i] = envs[i].Step(rejects[k])
			rep.EpisodeSeconds[i] += time.Since(t0).Seconds()
		})
		rep.Busy += busy
		rep.Wall += wall

		keep := live[:0]
		for _, i := range live {
			if done[i] {
				results[i] = envs[i].Result()
				if espans != nil {
					endEpisodeSpan(&cfg, espans[i], cfg.SlotBase+i, len(eps[i].Jobs), envs[i].Now(), &results[i])
				}
			} else {
				keep = append(keep, i)
			}
		}
		live = keep
	}
}
