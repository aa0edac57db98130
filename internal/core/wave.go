package core

import (
	"math/rand"

	"schedinspector/internal/nn"
	"schedinspector/internal/obs"
	"schedinspector/internal/rl"
	"schedinspector/internal/rollout"
)

// waveSampler turns the rollout driver's decision waves into inspector
// actions with one matrix-shaped policy forward per wave. Where the old
// engine ran one scalar MLP forward inside every simulator callback, a
// worker stacks the features of every decision pending in its window into
// one batch, forwards it once, and then samples (or argmaxes) each row.
//
// Bit-identity with the callback path holds row by row: ForwardBatch
// reproduces Forward's accumulation order exactly, Softmax and the
// categorical draw are the shared rl.SampleCategorical kernel, and each
// row draws from its own slot's trajectory stream — so wave composition
// cannot influence any decision.
//
// The sampler itself is what the rollout workers share: one read-only
// snapshot of the inspector, and the per-slot state, which needs no lock
// because the driver hands a slot to exactly one worker. Everything a
// forward writes is per worker (waveWorker).
type waveSampler struct {
	insp   *Inspector
	slots  []slotState // indexed by episode slot
	record bool        // keep per-slot step logs (training)
	greedy bool

	// Flight-recorder hookup (explainTo): every decision emits one explain
	// record keyed (epoch, slot, per-slot sequence). A slot's decisions
	// arrive in its episode's step order, so the key — and with it every
	// record field — is independent of wave composition and worker count.
	flight *obs.TraceRing
	epoch  int
	maxRej int
}

// slotState is what one episode slot carries from decision to decision.
type slotState struct {
	rng   *rand.Rand // the slot's action draws; unread in greedy mode
	steps []rl.Step  // transition records when recording
	slab  []float64  // backing store of the recorded observations
	seq   int        // explain records emitted so far
}

// waveWorker is one rollout worker's Decide: the scratch a forward pass
// writes, over the shared sampler.
type waveWorker struct {
	*waveSampler
	feats      []float64 // wave feature matrix, rows x Mode.Dim()
	probs      []float64 // softmax scratch
	bcache     nn.BatchCache
	recScratch obs.ExplainRecord // reused record; EmitDecision copies
}

// newWaveSampler builds a sampler over len(rngs) episode slots using insp
// as the read-only policy snapshot. rngs[slot] supplies the slot's action
// draws; greedy takes the argmax instead and consumes no randomness.
// record keeps per-slot step logs for training.
func newWaveSampler(insp *Inspector, rngs []*rand.Rand, greedy, record bool) *waveSampler {
	s := &waveSampler{insp: insp, slots: make([]slotState, len(rngs)), record: record, greedy: greedy}
	for i, rng := range rngs {
		s.slots[i].rng = rng
	}
	return s
}

// worker is the rollout.Config.NewDecide hook.
func (s *waveSampler) worker(int) rollout.Decide {
	w := &waveWorker{waveSampler: s, probs: make([]float64, s.insp.Agent.Policy.OutputSize())}
	return w.decide
}

// obsSlabRows is how many observations one slab block holds. A trajectory
// of the default SeqLen records a few hundred decisions, so it fills one or
// two blocks instead of making one allocation per decision.
const obsSlabRows = 256

// recordObs copies row into the slot's slab and returns the copy. A full
// slab is replaced by a new block, never grown, so slices handed out
// earlier never move.
func (sl *slotState) recordObs(row []float64) []float64 {
	slab := sl.slab
	if cap(slab)-len(slab) < len(row) {
		slab = make([]float64, 0, obsSlabRows*len(row))
	}
	n := len(slab)
	slab = append(slab, row...)
	sl.slab = slab
	return slab[n:len(slab):len(slab)]
}

// explainTo attaches a flight recorder: every subsequent decision emits one
// explain record into it. A nil f disables recording.
func (s *waveSampler) explainTo(f *obs.TraceRing, epoch, maxRejections int) {
	s.flight = f
	s.epoch = epoch
	s.maxRej = maxRejections
}

func (w *waveWorker) decide(pending []rollout.Pending, rejects []bool) {
	dim := w.insp.Mode.Dim()
	rows := len(pending)
	if cap(w.feats) < rows*dim {
		w.feats = make([]float64, rows*dim)
	}
	w.feats = w.feats[:rows*dim]
	for i := range pending {
		// Full-capacity subslices: Features fills the matrix row in place.
		w.insp.Norm.Features(w.feats[i*dim:(i+1)*dim:(i+1)*dim], w.insp.Mode, pending[i].State)
	}
	logits := w.insp.Agent.Policy.ForwardBatch(w.feats, rows, &w.bcache)
	nAct := w.insp.Agent.Policy.OutputSize()
	for i := range pending {
		lg := logits[i*nAct : (i+1)*nAct]
		slot := pending[i].Slot
		sl := &w.slots[slot]
		var action int
		var logp float64
		if w.greedy {
			for a := 1; a < len(lg); a++ {
				if lg[a] > lg[action] {
					action = a
				}
			}
		} else {
			action, logp = rl.SampleCategorical(sl.rng, lg, w.probs)
		}
		if w.record {
			sl.steps = append(sl.steps, rl.Step{
				Obs:    sl.recordObs(w.feats[i*dim : (i+1)*dim]),
				Action: action,
				LogP:   logp,
			})
		}
		rejects[i] = action == ActionReject
		if w.flight != nil {
			if w.greedy {
				// Sampling left softmax(lg) in w.probs; the greedy branch
				// skipped it, so fill the scratch now for the record.
				nn.Softmax(lg, w.probs)
			}
			st := pending[i].State
			util := 0.0
			if st.TotalProcs > 0 {
				util = 1 - float64(st.FreeProcs)/float64(st.TotalProcs)
			}
			// The record borrows the worker's scratch slices: EmitDecision
			// copies them into the ring's arena.
			w.recScratch = obs.ExplainRecord{
				Epoch: w.epoch, Traj: slot, Seq: sl.seq, Time: st.Now,
				JobID: st.Job.ID, Wait: st.JobWait, Procs: st.Job.Procs, Est: st.Job.Est,
				Rejections: st.Rejections, MaxRejections: w.maxRej,
				QueueLen: len(st.Queue) + 1, FreeProcs: st.FreeProcs,
				TotalProcs: st.TotalProcs, Utilization: util,
				Features: w.feats[i*dim : (i+1)*dim],
				Logits:   lg,
				Probs:    w.probs[:len(lg)],
				Action:   action, Sampled: !w.greedy, Rejected: rejects[i],
			}
			sl.seq++
			w.flight.EmitDecision(&w.recScratch)
		}
	}
}
