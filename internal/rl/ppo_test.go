package rl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"schedinspector/internal/nn"
)

func TestNewAgentShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewAgent(rng, 7, []int{32, 16, 8}, 2)
	if a.Policy.InputSize() != 7 || a.Policy.OutputSize() != 2 {
		t.Errorf("policy shape %d->%d", a.Policy.InputSize(), a.Policy.OutputSize())
	}
	if a.Value.OutputSize() != 1 {
		t.Errorf("value output %d", a.Value.OutputSize())
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid agent config did not panic")
		}
	}()
	NewAgent(rng, 0, nil, 2)
}

func TestSampleDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewAgent(rng, 2, []int{8}, 2)
	obs := []float64{0.5, -0.5}
	p1 := a.ActionProb(obs, 1)
	n1 := 0
	const n = 20000
	for i := 0; i < n; i++ {
		act, logp := a.Sample(obs)
		if act == 1 {
			n1++
		}
		want := a.ActionProb(obs, act)
		if math.Abs(math.Exp(logp)-want) > 1e-9 {
			t.Fatalf("logp inconsistent: exp(%v)=%v want %v", logp, math.Exp(logp), want)
		}
	}
	if emp := float64(n1) / n; math.Abs(emp-p1) > 0.02 {
		t.Errorf("empirical P(a=1) = %v, policy says %v", emp, p1)
	}
}

func TestGreedyMatchesArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewAgent(rng, 3, []int{8}, 4)
	obs := []float64{1, 0, -1}
	g := a.Greedy(obs)
	best, bestP := 0, a.ActionProb(obs, 0)
	for k := 1; k < 4; k++ {
		if p := a.ActionProb(obs, k); p > bestP {
			best, bestP = k, p
		}
	}
	if g != best {
		t.Errorf("Greedy = %d, argmax prob = %d", g, best)
	}
}

// TestUpdateValidatesObsSize: an observation that is not whole rows of the
// policy's input, or an action outside its step's logits, anywhere in the
// batch fails the Update before it touches a statistic, the scratch or the
// networks, so the next valid Update is the one a fresh PPO would run.
func TestUpdateValidatesObsSize(t *testing.T) {
	build := func() (*Agent, *PPO) {
		a := NewAgent(rand.New(rand.NewSource(4)), 3, []int{4}, 2)
		return a, NewPPO(a, PPOConfig{})
	}
	good := Trajectory{
		Steps:  []Step{{Obs: []float64{1, 2, 3}, Action: 1, LogP: -0.6}, {Obs: []float64{0, -1, 2}, Action: 0, LogP: -0.8}},
		Reward: 0.5,
	}

	a, ppo := build()
	for _, c := range []struct {
		bad  Step
		want string
	}{
		{Step{Obs: []float64{1, 2}, Action: 0, LogP: -0.7}, "rl: observation size 2, want a positive multiple of 3"},
		{Step{Obs: nil, Action: 0, LogP: -0.7}, "rl: observation size 0, want a positive multiple of 3"},
		{Step{Obs: []float64{1, 2, 3, 4}, Action: 0, LogP: -0.7}, "rl: observation size 4, want a positive multiple of 3"},
		{Step{Obs: []float64{1, 2, 3}, Action: 2, LogP: -0.7}, "rl: action 2 outside the 2 logits of its step"},
		{Step{Obs: []float64{1, 2, 3}, Action: -1, LogP: -0.7}, "rl: action -1 outside the 2 logits of its step"},
		{Step{Obs: []float64{1, 2, 3, 4, 5, 6}, Action: 4, LogP: -0.7}, "rl: action 4 outside the 4 logits of its step"},
	} {
		bad := Trajectory{Steps: []Step{c.bad}, Reward: 1}
		st, err := func() (st UpdateStats, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			return ppo.Update([]Trajectory{good, bad})
		}()
		if err == nil || err.Error() != c.want {
			t.Errorf("error %v, want %q", err, c.want)
		}
		if st != (UpdateStats{}) {
			t.Errorf("failed Update returned non-zero stats %+v", st)
		}
	}

	fa, fresh := build()
	got, err1 := ppo.Update([]Trajectory{good})
	want, err2 := fresh.Update([]Trajectory{good})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	var hg, hw stateHasher
	hg.stats(got)
	hg.state(a, ppo)
	hw.stats(want)
	hw.state(fa, fresh)
	if hg.sum() != hw.sum() {
		t.Errorf("Update after a rejected batch differs from a fresh PPO's: %+v vs %+v", got, want)
	}
}

// TestUpdateWarmAllocs: Update owns its scratch. After one warm-up a
// same-sized batch allocates nothing, a larger batch grows the scratch
// once, and what ran before never shows in the result.
func TestUpdateWarmAllocs(t *testing.T) {
	build := func() (*Agent, *PPO, *rand.Rand) {
		rng := rand.New(rand.NewSource(11))
		a := NewAgent(rng, 8, []int{32, 16, 8}, 2)
		return a, NewPPO(a, PPOConfig{}), rng
	}
	a, ppo, rng := build()
	small := digestBatch(a, rng)
	large := append(digestBatch(a, rng), digestBatch(a, rng)...)
	// Many-row steps, one wider than a chunk: the softmax, chunk and critic
	// scratch grow once more.
	manyRow := rowsBatch(a, rng, [][]int{{3, 64, 1}, {150, 7}, {}, {20, 20, 20}})
	update := func(p *PPO, batch []Trajectory) UpdateStats {
		t.Helper()
		st, err := p.Update(batch)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Digest of Update(small) on untouched scratch.
	var fresh stateHasher
	fresh.stats(update(ppo, small))
	fresh.state(a, ppo)

	if n := testing.AllocsPerRun(3, func() { update(ppo, small) }); n != 0 {
		t.Errorf("warm Update on a same-sized batch: %v allocs, want 0", n)
	}
	update(ppo, large) // grows the scratch
	if n := testing.AllocsPerRun(3, func() { update(ppo, large) }); n != 0 {
		t.Errorf("warm Update on the larger batch: %v allocs, want 0", n)
	}
	update(ppo, manyRow) // grows it again
	if n := testing.AllocsPerRun(3, func() { update(ppo, manyRow) }); n != 0 {
		t.Errorf("warm Update on the many-row batch: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(3, func() { update(ppo, small) }); n != 0 {
		t.Errorf("Update on a smaller batch after growth: %v allocs, want 0", n)
	}

	// Put the initial weights and Adam state back under the now large and
	// dirty scratch: Update(small) must reproduce the fresh digest.
	a0, p0, _ := build()
	copyNet := func(dst, src *nn.MLP) {
		for l := range src.W {
			copy(dst.W[l], src.W[l])
			copy(dst.B[l], src.B[l])
		}
	}
	copyNet(a.Policy, a0.Policy)
	copyNet(a.Value, a0.Value)
	if err := ppo.RestoreOptimizer(p0.OptimizerState()); err != nil {
		t.Fatal(err)
	}
	var warm stateHasher
	warm.stats(update(ppo, small))
	warm.state(a, ppo)
	if warm.sum() != fresh.sum() {
		t.Error("Update on warmed scratch differs from the same Update on a fresh PPO")
	}
}

func TestUpdateEmptyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewAgent(rng, 3, []int{4}, 2)
	ppo := NewPPO(a, PPOConfig{})
	st, err := ppo.Update(nil)
	if err != nil || st.Steps != 0 {
		t.Errorf("empty batch: %+v, %v", st, err)
	}
}

// contextual bandit: action must match the sign of the observation. The
// terminal reward is the fraction of correct choices — mirroring the sparse,
// sequence-level reward SchedInspector trains with.
func banditBatch(a *Agent, rng *rand.Rand, trajs, steps int) []Trajectory {
	batch := make([]Trajectory, trajs)
	for i := range batch {
		var tr Trajectory
		correct := 0
		for k := 0; k < steps; k++ {
			x := rng.Float64()*2 - 1
			obs := []float64{x}
			act, logp := a.Sample(obs)
			want := 0
			if x > 0 {
				want = 1
			}
			if act == want {
				correct++
			}
			tr.Steps = append(tr.Steps, Step{Obs: obs, Action: act, LogP: logp})
		}
		tr.Reward = float64(correct) / float64(steps)
		batch[i] = tr
	}
	return batch
}

func TestPPOLearnsContextualBandit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewAgent(rng, 1, []int{16, 8}, 2)
	ppo := NewPPO(a, PPOConfig{LR: 3e-3})
	var last UpdateStats
	for epoch := 0; epoch < 60; epoch++ {
		batch := banditBatch(a, rng, 16, 32)
		st, err := ppo.Update(batch)
		if err != nil {
			t.Fatal(err)
		}
		last = st
	}
	if last.MeanReward < 0.9 {
		t.Errorf("PPO failed to learn bandit: final accuracy %v, want >= 0.9", last.MeanReward)
	}
	// Greedy policy should be essentially perfect.
	correct := 0
	const n = 1000
	for i := 0; i < n; i++ {
		x := rng.Float64()*2 - 1
		want := 0
		if x > 0 {
			want = 1
		}
		if a.Greedy([]float64{x}) == want {
			correct++
		}
	}
	if float64(correct)/n < 0.95 {
		t.Errorf("greedy accuracy %v, want >= 0.95", float64(correct)/n)
	}
}

func TestCriticLearnsBaseline(t *testing.T) {
	// Constant reward 0.7 regardless of action: the critic should converge
	// to it.
	rng := rand.New(rand.NewSource(8))
	a := NewAgent(rng, 1, []int{8}, 2)
	ppo := NewPPO(a, PPOConfig{LR: 5e-3})
	for epoch := 0; epoch < 40; epoch++ {
		var batch []Trajectory
		for i := 0; i < 8; i++ {
			var tr Trajectory
			for k := 0; k < 16; k++ {
				obs := []float64{rng.Float64()}
				act, logp := a.Sample(obs)
				tr.Steps = append(tr.Steps, Step{Obs: obs, Action: act, LogP: logp})
			}
			tr.Reward = 0.7
			batch = append(batch, tr)
		}
		if _, err := ppo.Update(batch); err != nil {
			t.Fatal(err)
		}
	}
	v := a.StateValue([]float64{0.5})
	if math.Abs(v-0.7) > 0.1 {
		t.Errorf("critic value %v, want ~0.7", v)
	}
}

func TestKLEarlyStopEngages(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := NewAgent(rng, 1, []int{8}, 2)
	// Huge LR forces big policy shifts; with a tight KL target, iterations
	// must stop well before the configured maximum.
	ppo := NewPPO(a, PPOConfig{LR: 0.1, PolicyIters: 50, TargetKL: 1e-4})
	batch := banditBatch(a, rng, 8, 16)
	st, err := ppo.Update(batch)
	if err != nil {
		t.Fatal(err)
	}
	if st.PolicyIters >= 50 {
		t.Errorf("KL early stop never engaged: %d iters", st.PolicyIters)
	}
}

func TestUpdateStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := NewAgent(rng, 1, []int{8}, 2)
	ppo := NewPPO(a, PPOConfig{})
	batch := banditBatch(a, rng, 4, 8)
	st, err := ppo.Update(batch)
	if err != nil {
		t.Fatal(err)
	}
	if st.Steps != 32 {
		t.Errorf("Steps = %d, want 32", st.Steps)
	}
	if st.Entropy <= 0 || st.Entropy > math.Log(2)+1e-9 {
		t.Errorf("entropy %v outside (0, ln2]", st.Entropy)
	}
	if st.ValueLoss < 0 {
		t.Errorf("negative value loss %v", st.ValueLoss)
	}
	if st.MeanReward < 0 || st.MeanReward > 1 {
		t.Errorf("mean reward %v outside [0,1]", st.MeanReward)
	}
}
