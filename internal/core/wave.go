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
// engine ran one scalar MLP forward inside every simulator callback, the
// sampler stacks the features of every concurrently-pending decision into
// one batch, forwards it once, and then samples (or argmaxes) each row.
//
// Bit-identity with the callback path holds row by row: ForwardBatch
// reproduces Forward's accumulation order exactly, Softmax and the
// categorical draw are the shared rl.SampleCategorical kernel, and each
// row draws from its own slot's trajectory stream — so wave composition
// cannot influence any decision.
//
// The sampler is coordinator-only: Decide is never called concurrently, so
// one snapshot of the inspector serves every slot.
type waveSampler struct {
	insp   *Inspector
	rngs   []*rand.Rand // per-slot streams; indexed by episode slot
	steps  [][]rl.Step  // per-slot transition records when recording
	slabs  [][]float64  // per-slot backing store of the recorded observations
	greedy bool

	feats  []float64 // wave feature matrix, rows x Mode.Dim()
	probs  []float64 // softmax scratch
	bcache nn.BatchCache

	// Flight-recorder hookup (explainTo): every decision emits one explain
	// record keyed (epoch, slot, per-slot sequence). The sampler is
	// coordinator-only and a slot's decisions arrive in its episode's step
	// order, so the key — and with it every record field — is independent
	// of wave composition and worker count.
	flight     *obs.TraceRing
	epoch      int
	maxRej     int
	seqs       map[int]int       // per-slot decision counters
	recScratch obs.ExplainRecord // reused record; EmitDecision copies
}

// newWaveSampler builds a sampler over slots episode slots using insp as
// the read-only policy snapshot. rngs[slot] supplies the slot's action
// draws (stochastic modes); record allocates per-slot step logs for
// training. Greedy mode (rngs nil) takes the argmax instead of sampling.
func newWaveSampler(insp *Inspector, rngs []*rand.Rand, slots int, record bool) *waveSampler {
	s := &waveSampler{
		insp:   insp,
		rngs:   rngs,
		greedy: rngs == nil,
		probs:  make([]float64, insp.Agent.Policy.OutputSize()),
	}
	if record {
		s.steps = make([][]rl.Step, slots)
		s.slabs = make([][]float64, slots)
	}
	return s
}

// obsSlabRows is how many observations one slab block holds. A trajectory
// of the default SeqLen records a few hundred decisions, so it fills one or
// two blocks instead of making one allocation per decision.
const obsSlabRows = 256

// recordObs copies row into slot's slab and returns the copy. A full slab
// is replaced by a new block, never grown, so slices handed out earlier
// never move.
func (s *waveSampler) recordObs(slot int, row []float64) []float64 {
	slab := s.slabs[slot]
	if cap(slab)-len(slab) < len(row) {
		slab = make([]float64, 0, obsSlabRows*len(row))
	}
	n := len(slab)
	slab = append(slab, row...)
	s.slabs[slot] = slab
	return slab[n:len(slab):len(slab)]
}

// explainTo attaches a flight recorder: every subsequent decision emits one
// explain record into it. A nil f disables recording.
func (s *waveSampler) explainTo(f *obs.TraceRing, epoch, maxRejections int) {
	s.flight = f
	s.epoch = epoch
	s.maxRej = maxRejections
	if f != nil && s.seqs == nil {
		s.seqs = make(map[int]int)
	}
}

func (s *waveSampler) decide(pending []rollout.Pending, rejects []bool) {
	dim := s.insp.Mode.Dim()
	rows := len(pending)
	if cap(s.feats) < rows*dim {
		s.feats = make([]float64, rows*dim)
	}
	s.feats = s.feats[:rows*dim]
	for i := range pending {
		// Full-capacity subslices: Features fills the matrix row in place.
		s.insp.Norm.Features(s.feats[i*dim:(i+1)*dim:(i+1)*dim], s.insp.Mode, pending[i].State)
	}
	logits := s.insp.Agent.Policy.ForwardBatch(s.feats, rows, &s.bcache)
	nAct := s.insp.Agent.Policy.OutputSize()
	for i := range pending {
		lg := logits[i*nAct : (i+1)*nAct]
		var action int
		var logp float64
		if s.greedy {
			for a := 1; a < len(lg); a++ {
				if lg[a] > lg[action] {
					action = a
				}
			}
		} else {
			action, logp = rl.SampleCategorical(s.rngs[pending[i].Slot], lg, s.probs)
		}
		if s.steps != nil {
			slot := pending[i].Slot
			s.steps[slot] = append(s.steps[slot], rl.Step{
				Obs:    s.recordObs(slot, s.feats[i*dim:(i+1)*dim]),
				Action: action,
				LogP:   logp,
			})
		}
		rejects[i] = action == ActionReject
		if s.flight != nil {
			if s.greedy {
				// Sampling left softmax(lg) in s.probs; the greedy branch
				// skipped it, so fill the scratch now for the record.
				nn.Softmax(lg, s.probs)
			}
			st := pending[i].State
			slot := pending[i].Slot
			seq := s.seqs[slot]
			s.seqs[slot] = seq + 1
			util := 0.0
			if st.TotalProcs > 0 {
				util = 1 - float64(st.FreeProcs)/float64(st.TotalProcs)
			}
			// The record borrows the sampler's scratch slices: EmitDecision
			// copies them into the ring's arena.
			s.recScratch = obs.ExplainRecord{
				Epoch: s.epoch, Traj: slot, Seq: seq, Time: st.Now,
				JobID: st.Job.ID, Wait: st.JobWait, Procs: st.Job.Procs, Est: st.Job.Est,
				Rejections: st.Rejections, MaxRejections: s.maxRej,
				QueueLen: len(st.Queue) + 1, FreeProcs: st.FreeProcs,
				TotalProcs: st.TotalProcs, Utilization: util,
				Features: s.feats[i*dim : (i+1)*dim],
				Logits:   lg,
				Probs:    s.probs[:len(lg)],
				Action:   action, Sampled: !s.greedy, Rejected: rejects[i],
			}
			s.flight.EmitDecision(&s.recScratch)
		}
	}
}
