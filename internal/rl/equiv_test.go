package rl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"schedinspector/internal/nn"
)

// digestLens are the trajectory lengths of the frozen-digest batch: unequal,
// and summing to 379 = 2*128 + 123 = 94*4 + 3, so an update kernel that works
// in 128-row chunks and 4-row register blocks runs a short last chunk and a
// row tail.
var digestLens = []int{37, 5, 91, 128, 1, 64, 53}

// digestBatch samples one on-policy batch of len(digestLens) trajectories
// from a; observations, actions and rewards all come from rng.
func digestBatch(a *Agent, rng *rand.Rand) []Trajectory {
	dim := a.Policy.InputSize()
	batch := make([]Trajectory, len(digestLens))
	for i, n := range digestLens {
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
	ppo := NewPPO(a, PPOConfig{LR: 3e-3, NoCritic: noCritic})
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
// produced by the per-sample Forward→Backward update at commit ca442b7 and
// must never be re-baselined by a change that only restructures the update:
// chunking, blocking or scratch reuse may not move a single bit of the
// statistics, the weights or the Adam moments.
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
		{"critic", false, "5b077e905e615b494e19dfa8ba9f51d2f64f26501ca329298812bb9d90918c5f"},
		{"nocritic", true, "13a30cdc8f514db54becb05884451d9630ed74b643136c106d498ab358369bfe"},
	} {
		if got := updateDigest(t, tc.noCritic); got != tc.want {
			t.Errorf("%s: update digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
