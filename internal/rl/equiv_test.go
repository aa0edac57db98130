package rl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"schedinspector/internal/nn"
)

// digestLens are the trajectory lengths of the frozen-digest batch: unequal,
// and summing to 379 = 2*128 + 123, so the update, which works in 128-row
// chunks and runs row pairs against blocks of eight columns, runs a short
// last chunk whose 123 rows end in an odd row.
var digestLens = []int{37, 5, 91, 128, 1, 64, 53}

// digestBatch samples one on-policy batch of len(digestLens) trajectories
// from a; observations, actions and rewards all come from rng.
func digestBatch(a *Agent, rng *rand.Rand) []Trajectory {
	return sampleBatch(a, rng, digestLens)
}

// sampleBatch is digestBatch for trajectories of the given lengths.
func sampleBatch(a *Agent, rng *rand.Rand, lens []int) []Trajectory {
	dim := a.Policy.InputSize()
	batch := make([]Trajectory, len(lens))
	for i, n := range lens {
		tr := Trajectory{Reward: rng.Float64()*2 - 1}
		for k := 0; k < n; k++ {
			obs := make([]float64, dim)
			for j := range obs {
				obs[j] = rng.NormFloat64()
			}
			act, logp := a.Sample(obs)
			tr.Steps = append(tr.Steps, Step{Obs: obs, Action: act, LogP: logp})
		}
		batch[i] = tr
	}
	return batch
}

// stateHasher folds UpdateStats, network weights and optimizer state into
// one sha-256, every float by its exact bit pattern.
type stateHasher struct {
	buf []byte
}

func (h *stateHasher) u64(v uint64) { h.buf = binary.BigEndian.AppendUint64(h.buf, v) }
func (h *stateHasher) f64(v float64) {
	h.u64(math.Float64bits(v))
}
func (h *stateHasher) mat(m [][]float64) {
	for _, row := range m {
		for _, v := range row {
			h.f64(v)
		}
	}
}
func (h *stateHasher) stats(st UpdateStats) {
	h.u64(uint64(st.Steps))
	h.f64(st.MeanReward)
	h.f64(st.RewardStd)
	h.f64(st.ApproxKL)
	h.u64(uint64(st.PolicyIters))
	h.f64(st.PolicyLoss)
	h.f64(st.ValueLoss)
	h.f64(st.Entropy)
}
func (h *stateHasher) net(m *nn.MLP) {
	h.mat(m.W)
	h.mat(m.B)
}
func (h *stateHasher) adam(s nn.AdamState) {
	h.u64(uint64(s.T))
	h.mat(s.MW)
	h.mat(s.VW)
	h.mat(s.MB)
	h.mat(s.VB)
}
func (h *stateHasher) state(a *Agent, p *PPO) {
	h.net(a.Policy)
	h.net(a.Value)
	opt := p.OptimizerState()
	h.adam(opt.Policy)
	h.adam(opt.Value)
}
func (h *stateHasher) sum() string {
	s := sha256.Sum256(h.buf)
	return hex.EncodeToString(s[:])
}

// updateDigest runs three consecutive Updates on the paper's 8→32/16/8→2
// actor-critic — two fresh on-policy batches, then the first batch again,
// now stale, so ratios leave the clip band — and digests everything the
// updates produced. At LR 3e-3 with the critic on, the second update stops
// early on KL (7 of 10 passes) and the other two run all 10, so both exits
// of the policy loop are in the digest.
func updateDigest(t *testing.T, noCritic bool) string {
	t.Helper()
	rng := rand.New(rand.NewSource(20220627))
	a := NewAgent(rng, 8, []int{32, 16, 8}, 2)
	ppo := NewPPO(a, 3e-3, noCritic)
	first := digestBatch(a, rng)
	var h stateHasher
	for _, batch := range [][]Trajectory{first, nil, first} {
		if batch == nil {
			batch = digestBatch(a, rng)
		}
		st, err := ppo.Update(batch)
		if err != nil {
			t.Fatal(err)
		}
		h.stats(st)
	}
	h.state(a, ppo)
	return h.sum()
}

// TestEquivUpdateDigest freezes the bits of PPO.Update. The constants were
// produced by this code at PR 19, which changed the floating-point order
// once, on purpose: every sum over the batch went from one running total in
// transition order to per-trajectory leaves folded over the fixed tree of
// tree.go (the constants before it were the per-sample Forward→Backward
// update's at commit ca442b7, which PR 17's kernels reproduced). They must
// never be re-baselined by a change that only restructures the update:
// chunking, blocking, scratch reuse, or dealing the leaves to more
// goroutines or processes may not move a single bit of the statistics, the
// weights or the Adam moments — TestEquivUpdateShardInvariant holds the
// last of those to these same bits.
func TestEquivUpdateDigest(t *testing.T) {
	// The constants hold on amd64 only: other ports fuse x*y+z into one
	// rounding (arm64, ppc64le, s390x, riscv64) and have their own math.Exp
	// and math.Log kernels, so their bits legitimately differ from these.
	// The arch-independent oracles are the kernel tests in internal/nn.
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest constants are amd64 bits; GOARCH=%s", runtime.GOARCH)
	}
	for _, tc := range []struct {
		name     string
		noCritic bool
		want     string
	}{
		{"critic", false, "5e002c1c1b013348026532e50de84a8a485e7b6c3beb6983b052c7dd6863327a"},
		{"nocritic", true, "d006e4b1f30c59f9db87e4607ad055a9402bc4663498d128e598e7e16346645d"},
	} {
		if got := updateDigest(t, tc.noCritic); got != tc.want {
			t.Errorf("%s: update digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// memMesh is an in-memory Exchange between k updates running on goroutines
// of their own: a round completes when all k have handed in their nodes,
// and each gets back a private copy of everyone's in shard order.
type memMesh struct {
	mu      sync.Mutex
	cond    *sync.Cond
	k       int
	round   Round
	slots   [][]Node
	all     []Node
	arrived int
	gen     int
	err     error
}

func newMemMesh(k int) *memMesh {
	m := &memMesh{k: k, slots: make([][]Node, k)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func cloneNodes(nodes []Node) []Node {
	out := make([]Node, len(nodes))
	for i, nd := range nodes {
		out[i] = Node{Lo: nd.Lo, Hi: nd.Hi, Vec: append([]float64(nil), nd.Vec...)}
	}
	return out
}

// fail releases every update waiting on the mesh with err.
func (m *memMesh) fail(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil {
		m.err = err
	}
	m.cond.Broadcast()
}

func (m *memMesh) exchange(rank int) Exchange {
	return func(r Round, own []Node) ([]Node, error) {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.arrived == 0 {
			m.round = r
		} else if m.round != r && m.err == nil {
			m.err = fmt.Errorf("shard %d is in round %+v, the others in %+v", rank, r, m.round)
			m.cond.Broadcast()
		}
		m.slots[rank] = cloneNodes(own)
		m.arrived++
		if m.arrived == m.k {
			m.all = m.all[:0]
			for _, s := range m.slots {
				m.all = append(m.all, s...)
			}
			m.arrived = 0
			m.gen++
			m.cond.Broadcast()
		} else {
			for gen := m.gen; gen == m.gen && m.err == nil; {
				m.cond.Wait()
			}
		}
		if m.err != nil {
			return nil, m.err
		}
		return cloneNodes(m.all), nil
	}
}

// statsBits digests st by exact bit pattern.
func statsBits(st UpdateStats) string {
	var h stateHasher
	h.stats(st)
	return h.sum()
}

// TestEquivUpdateShardInvariant: the update's bits do not depend on how the
// batch is dealt. The digest batch, once as it is (7 leaves, so the tree
// has a ragged right spine) and once with a trajectory of zero steps added
// (8 leaves, a perfect tree), goes through UpdateShard under every
// contiguous two-way split and an unaligned three- and five-way split —
// shards whose covers are several nodes — and every shard must return the
// statistics, and end with the weights and Adam moments, of plain Update.
func TestEquivUpdateShardInvariant(t *testing.T) {
	const seed = 20220627
	build := func(noCritic bool) (*Agent, *PPO, *rand.Rand) {
		rng := rand.New(rand.NewSource(seed))
		a := NewAgent(rng, 8, []int{32, 16, 8}, 2)
		return a, NewPPO(a, 5e-3, noCritic), rng
	}
	for _, lens := range [][]int{digestLens, {37, 5, 91, 0, 128, 1, 64, 53}} {
		for _, noCritic := range []bool{false, true} {
			// The reference: three Updates as in updateDigest, keeping the
			// batches so that the shards can replay them.
			a, ppo, rng := build(noCritic)
			first := sampleBatch(a, rng, lens)
			batches := [][]Trajectory{first, nil, first}
			var wantStats []UpdateStats
			stopped := false
			for i := range batches {
				if batches[i] == nil {
					batches[i] = sampleBatch(a, rng, lens)
				}
				st, err := ppo.Update(batches[i])
				if err != nil {
					t.Fatal(err)
				}
				stopped = stopped || st.PolicyIters < 10
				wantStats = append(wantStats, st)
			}
			if !stopped {
				t.Fatalf("lens %v noCritic %v: no update stopped early on KL; the test no longer covers that exit", lens, noCritic)
			}
			var want stateHasher
			want.state(a, ppo)

			n := len(first)
			var splits [][]int // cut points, 0 and n included
			for c := 1; c < n; c++ {
				splits = append(splits, []int{0, c, n})
			}
			splits = append(splits, []int{0, 3, 5, n}, []int{0, 1, 3, 6, 7, n})
			for _, cuts := range splits {
				k := len(cuts) - 1
				mesh := newMemMesh(k)
				errs := make([]error, k)
				var wg sync.WaitGroup
				for r := 0; r < k; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						a, ppo, _ := build(noCritic)
						for i, batch := range batches {
							rewards, steps := make([]float64, n), make([]int, n)
							for j, tr := range batch {
								rewards[j], steps[j] = tr.Reward, len(tr.Steps)
							}
							st, err := ppo.UpdateShard(cuts[r], batch[cuts[r]:cuts[r+1]], rewards, steps, mesh.exchange(r))
							if err == nil && statsBits(st) != statsBits(wantStats[i]) {
								err = fmt.Errorf("update %d: stats %+v, Update's are %+v", i, st, wantStats[i])
							}
							if err != nil {
								errs[r] = err
								mesh.fail(err)
								return
							}
						}
						var got stateHasher
						got.state(a, ppo)
						if got.sum() != want.sum() {
							errs[r] = fmt.Errorf("weights or Adam state differ from Update's")
						}
					}(r)
				}
				wg.Wait()
				for r, err := range errs {
					if err != nil {
						t.Errorf("lens %v noCritic %v cuts %v shard %d: %v", lens, noCritic, cuts, r, err)
					}
				}
			}
		}
	}
}

// TestEquivKernelLeafOracle pins the update's leaves to the per-row kernels
// they batch, on every architecture (TestEquivUpdateDigest runs on amd64
// only). One trajectory of 200 steps — two chunks, the second ragged — on
// a 5→8→3 policy and a 5→8→1 critic runs one moments, one policy and one
// value round. The advantages, the gradients and the sums must equal, bit
// for bit, a reference that calls Forward and Backward once per step in
// step order.
func TestEquivKernelLeafOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	a := NewAgent(rng, 5, []int{8}, 3)
	ppo := NewPPO(a, 1e-3, false)
	batch := sampleBatch(a, rng, []int{200})
	steps, ret := batch[0].Steps, batch[0].Reward
	for i := range steps {
		steps[i].LogP += 0.3 * rng.NormFloat64() // spread the ratios across the clip band
	}
	if err := ppo.flatten(batch); err != nil {
		t.Fatal(err)
	}
	ppo.lo, ppo.hi = 0, 1
	bitsEqual := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Errorf("%s[%d] = %v, the per-row reference gives %v", what, k, got[k], want[k])
			}
		}
	}
	flat := func(g *nn.Grads) []float64 {
		var out []float64
		for l := range g.W {
			out = append(append(out, g.W[l]...), g.B[l]...)
		}
		return out
	}
	var polCache, valCache nn.Cache // one per network: a Cache is sized by its first Forward

	if _, err := ppo.reduce(Round{Phase: PhaseMoments}, 1, nil); err != nil {
		t.Fatal(err)
	}
	wantAdv := make([]float64, len(steps))
	for i, s := range steps {
		wantAdv[i] = ret - a.Value.Forward(s.Obs, &valCache)[0]
	}
	bitsEqual("advantage", ppo.adv, wantAdv)

	// One policy pass on advantages of both signs.
	for i := range ppo.adv {
		ppo.adv[i] = rng.NormFloat64()
	}
	got, err := ppo.reduce(Round{Phase: PhasePolicy}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := nn.NewGrads(a.Policy)
	var kl, ent, loss float64
	clippedSteps := 0
	for i, s := range steps {
		probs := nn.Softmax(a.Policy.Forward(s.Obs, &polCache), nil)
		adv := ppo.adv[i]
		logpNew := math.Log(math.Max(probs[s.Action], 1e-12))
		ratio := math.Exp(logpNew - s.LogP)
		kl += s.LogP - logpNew
		clipped := math.Max(math.Min(ratio, 1+ClipRatio), 1-ClipRatio)
		loss += -math.Min(ratio*adv, clipped*adv)
		coef := 0.0
		if adv >= 0 && ratio < 1+ClipRatio || adv < 0 && ratio > 1-ClipRatio {
			coef = -ratio * adv
		} else {
			clippedSteps++
		}
		var h float64
		for _, q := range probs {
			if q > 0 {
				h -= q * math.Log(q)
			}
		}
		ent += h
		dLogits := make([]float64, len(probs))
		for k, q := range probs {
			ind := 0.0
			if k == s.Action {
				ind = 1
			}
			dLogits[k] = coef * (ind - q)
			if q > 0 {
				dLogits[k] += EntropyCoef * q * (math.Log(q) + h)
			}
		}
		a.Policy.Backward(&polCache, dLogits, g)
	}
	if clippedSteps == 0 || clippedSteps == len(steps) {
		t.Fatalf("%d of %d steps clipped; the pass must see both branches", clippedSteps, len(steps))
	}
	bitsEqual("policy gradient", got[:ppo.nPol], flat(g))
	bitsEqual("policy kl/entropy/loss", got[ppo.nPol:ppo.nPol+3], []float64{kl, ent, loss})

	// One value pass.
	got, err = ppo.reduce(Round{Phase: PhaseValue}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	g = nn.NewGrads(a.Value)
	loss = 0
	for _, s := range steps {
		d := a.Value.Forward(s.Obs, &valCache)[0] - ret
		loss += 0.5 * d * d
		a.Value.Backward(&valCache, []float64{d}, g)
	}
	bitsEqual("value gradient", got[:ppo.nVal], flat(g))
	bitsEqual("value loss", got[ppo.nVal:ppo.nVal+1], []float64{loss})
}
