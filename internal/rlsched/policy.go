// Package rlsched implements an RLScheduler-style learned batch scheduling
// policy (Zhang et al., SC'20) — the "intelligent scheduling policy" the
// SchedInspector paper compares against in related work and names as a
// future-work integration target (§7).
//
// Unlike the heuristics of Table 3, this policy scores every waiting job
// with a shared kernel network and picks among them with a softmax (during
// training) or argmax (at evaluation time). It plugs into the same
// simulator as the heuristics via sched.Policy + sched.Selector, which also
// means a SchedInspector can be trained on top of it unchanged — the
// repository's "inspector over a learned scheduler" extension experiment.
package rlsched

import (
	"math"
	"math/rand"

	"schedinspector/internal/nn"
	"schedinspector/internal/rl"
	"schedinspector/internal/sched"
	"schedinspector/internal/workload"
)

// MaxObserve caps how many waiting jobs the policy scores per decision
// (RLScheduler observes a fixed window of the queue; excess jobs are
// considered only after the observed ones drain).
const MaxObserve = 64

// kernelFeatures is the per-job input dimensionality of the kernel network:
// waiting time, estimated runtime, requested processors, runnable bit, and
// the cluster's free fraction.
const kernelFeatures = 5

// Norm holds the feature scaling constants (a small subset of the
// inspector's normalizer, kept local to avoid a dependency cycle).
type Norm struct {
	MaxEst   float64
	MeanEst  float64
	MaxProcs int
}

// NormForTrace derives scaling constants from a trace.
func NormForTrace(t *workload.Trace) Norm {
	s := workload.ComputeStats(t)
	n := Norm{MaxEst: s.MaxEst, MeanEst: s.MeanEst, MaxProcs: s.MaxProcs}
	if n.MaxEst <= 0 {
		n.MaxEst = 1
	}
	if n.MeanEst <= 0 {
		n.MeanEst = 1
	}
	if n.MaxProcs <= 0 {
		n.MaxProcs = 1
	}
	return n
}

// features writes the kernel input for job j into dst.
func (n Norm) features(dst []float64, j *workload.Job, now float64, free, total int) {
	wait := now - j.Submit
	dst[0] = wait / (wait + n.MeanEst)
	dst[1] = math.Min(j.Est/n.MaxEst, 1)
	dst[2] = math.Min(float64(j.Procs)/float64(n.MaxProcs), 1)
	if j.Procs <= free {
		dst[3] = 1
	} else {
		dst[3] = 0
	}
	dst[4] = float64(free) / float64(total)
}

// Policy is the learned scheduler. It implements sched.Policy (Score orders
// backfill candidates deterministically) and sched.Selector (Select makes
// the scheduling decision).
type Policy struct {
	Kernel *nn.MLP // kernelFeatures -> 1 logit
	Value  *nn.MLP // kernelFeatures (mean over the candidates) -> 1
	Norm   Norm

	rng      *rand.Rand
	sampling bool       // softmax sampling + recording vs argmax
	rec      *[]rl.Step // set during training

	// scratch
	cache nn.Cache
	batch nn.BatchCache
	feat  []float64 // one job's kernel input, for Score
	feats []float64 // the observed candidates' kernel inputs, row after row
	probs []float64

	lastFree, lastTotal int // cluster view from the latest Select, used by Score
}

// New creates an untrained policy with the given hidden sizes (default
// 32/16/8, matching the inspector's scale).
func New(rng *rand.Rand, norm Norm, hidden []int) *Policy {
	if len(hidden) == 0 {
		hidden = []int{32, 16, 8}
	}
	kSizes := append(append([]int{kernelFeatures}, hidden...), 1)
	return &Policy{
		Kernel: nn.New(rng, kSizes, nn.Tanh, nn.Identity),
		Value:  nn.New(rng, kSizes, nn.Tanh, nn.Identity),
		Norm:   norm,
		rng:    rng,
		feat:   make([]float64, kernelFeatures),
	}
}

// Name implements sched.Policy.
func (p *Policy) Name() string { return "RLSched" }

// ClonePolicy implements sched.Cloner for frozen (argmax) use: the copy
// shares the trained networks — read-only in Forward — but owns every
// scratch buffer and the per-run Select state. A policy in sampling or
// recording mode cannot be copied safely (clones would race on the shared
// RNG and step recorder), so ClonePolicy returns nil then and callers fall
// back to sequential simulation.
func (p *Policy) ClonePolicy() sched.Policy {
	if p.sampling || p.rec != nil {
		return nil
	}
	return &Policy{
		Kernel: p.Kernel,
		Value:  p.Value,
		Norm:   p.Norm,
		feat:   make([]float64, kernelFeatures),
	}
}

// SetSampling toggles softmax exploration (training) vs argmax (greedy).
// While sampling, a non-nil rec receives every decision as an rl.Step: the
// candidates' kernel inputs row after row, the chosen row and its
// log-probability — the many-row step rl.PPO trains the kernel on.
func (p *Policy) SetSampling(on bool, rec *[]rl.Step) {
	p.sampling = on
	p.rec = rec
}

// Score implements sched.Policy for backfill ordering: the negated kernel
// logit, so higher-scoring jobs backfill first. It uses the cluster view of
// the most recent Select call.
func (p *Policy) Score(j *workload.Job, now float64) float64 {
	free, total := p.lastFree, p.lastTotal
	if total == 0 {
		total = p.Norm.MaxProcs
		free = total
	}
	p.Norm.features(p.feat, j, now, free, total)
	return -p.Kernel.Forward(p.feat, &p.cache)[0]
}

// Select implements sched.Selector: score every observed candidate, then
// sample (training) or argmax (evaluation).
func (p *Policy) Select(queue []workload.Job, now float64, free, total int) int {
	p.lastFree, p.lastTotal = free, total
	n := min(len(queue), MaxObserve)
	if n == 0 {
		return -1
	}
	if cap(p.feats) < n*kernelFeatures {
		p.feats = make([]float64, n*kernelFeatures)
		p.probs = make([]float64, n)
	}
	feats := p.feats[:n*kernelFeatures]
	for i := 0; i < n; i++ {
		p.Norm.features(feats[i*kernelFeatures:(i+1)*kernelFeatures], &queue[i], now, free, total)
	}
	logits := p.Kernel.ForwardBatch(feats, n, &p.batch)

	if !p.sampling {
		best := 0
		for i := 1; i < n; i++ {
			if logits[i] > logits[best] {
				best = i
			}
		}
		return best
	}
	chosen, logp := rl.SampleCategorical(p.rng, logits, p.probs[:n])
	if p.rec != nil {
		*p.rec = append(*p.rec, rl.Step{Obs: append([]float64(nil), feats...), Action: chosen, LogP: logp})
	}
	return chosen
}
