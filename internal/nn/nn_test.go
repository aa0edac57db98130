package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(rng, []int{8, 32, 16, 8, 2}, Tanh, Identity)
	if m.InputSize() != 8 || m.OutputSize() != 2 {
		t.Errorf("in/out = %d/%d", m.InputSize(), m.OutputSize())
	}
	want := 8*32 + 32 + 32*16 + 16 + 16*8 + 8 + 8*2 + 2
	if got := m.NumParams(); got != want {
		t.Errorf("NumParams = %d, want %d", got, want)
	}
	// paper network: 3 hidden layers 32/16/8, 1-dim output — parameter count
	// should be near the 938 the paper cites (exact value depends on input
	// width; with 7 inputs it is 7*32+32+512+16+128+8+8+1 = 929).
	p := New(rng, []int{7, 32, 16, 8, 1}, Tanh, Identity)
	if p.NumParams() != 929 {
		t.Errorf("paper-shaped net params = %d, want 929", p.NumParams())
	}
}

func TestNewPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sizes := range [][]int{{4}, {4, 0, 2}, {}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("sizes %v did not panic", sizes)
				}
			}()
			New(rng, sizes, Tanh, Identity)
		}()
	}
}

func TestForwardKnownValues(t *testing.T) {
	// 2-2-1 net with hand-set weights, identity activations.
	rng := rand.New(rand.NewSource(1))
	m := New(rng, []int{2, 2, 1}, Identity, Identity)
	m.W[0] = []float64{1, 2, 3, 4} // h0 = x0 + 2x1; h1 = 3x0 + 4x1
	m.B[0] = []float64{0.5, -0.5}
	m.W[1] = []float64{1, -1} // y = h0 - h1
	m.B[1] = []float64{0.25}
	out := m.Forward([]float64{1, 1}, nil)
	// h = (3.5, 6.5); y = 3.5 - 6.5 + 0.25 = -2.75
	if math.Abs(out[0]+2.75) > 1e-12 {
		t.Errorf("forward = %v, want -2.75", out[0])
	}

	// Tanh nonlinearity.
	m.Acts[0] = Tanh
	out = m.Forward([]float64{1, 1}, nil)
	want := math.Tanh(3.5) - math.Tanh(6.5) + 0.25
	if math.Abs(out[0]-want) > 1e-12 {
		t.Errorf("tanh forward = %v, want %v", out[0], want)
	}
}

func TestForwardInputSizePanic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(rng, []int{3, 2}, Tanh, Identity)
	defer func() {
		if recover() == nil {
			t.Error("wrong input size did not panic")
		}
	}()
	m.Forward([]float64{1, 2}, nil)
}

// TestGradientCheck verifies backprop against finite differences for every
// parameter of a small network with mixed activations.
func TestGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, hidden := range []Activation{Tanh, ReLU} {
		m := New(rng, []int{4, 6, 5, 3}, hidden, Identity)
		const eps = 1e-6
		// check compares g against central differences of loss over every
		// parameter of m.
		check := func(kind string, loss func() float64, g *Grads) {
			t.Helper()
			params := func(p, gp []float64, name string, l int) {
				t.Helper()
				for i := range p {
					orig := p[i]
					p[i] = orig + eps
					lp := loss()
					p[i] = orig - eps
					lm := loss()
					p[i] = orig
					num := (lp - lm) / (2 * eps)
					if math.Abs(num-gp[i]) > 1e-5*(1+math.Abs(num)) {
						t.Fatalf("%v %s %s[%d][%d]: analytic %v numeric %v", hidden, kind, name, l, i, gp[i], num)
					}
				}
			}
			for l := range m.W {
				params(m.W[l], g.W[l], "W", l)
				params(m.B[l], g.B[l], "B", l)
			}
		}

		x := []float64{0.3, -0.8, 1.2, 0.05}
		target := []float64{0.5, -1.0, 0.25}
		var cache Cache
		out := m.Forward(x, &cache)
		dOut := make([]float64, len(out))
		for i := range out {
			dOut[i] = out[i] - target[i]
		}
		g := NewGrads(m)
		m.Backward(&cache, dOut, g)
		check("Backward", func() float64 {
			var l float64
			for i, o := range m.Forward(x, nil) {
				d := o - target[i]
				l += 0.5 * d * d
			}
			return l
		}, g)

		// BackwardBatch: the same squared error summed over 5 rows, two
		// row pairs plus an odd last row.
		const rows = 5
		xs := randVec(rng, rows*4)
		targets := randVec(rng, rows*3)
		var bcache BatchCache
		outs := m.ForwardBatch(xs, rows, &bcache)
		dOuts := make([]float64, len(outs))
		for i := range outs {
			dOuts[i] = outs[i] - targets[i]
		}
		gb := NewGrads(m)
		m.BackwardBatch(&bcache, dOuts, rows, gb)
		check("BackwardBatch", func() float64 {
			var l float64
			for i, o := range m.ForwardBatch(xs, rows, nil) {
				d := o - targets[i]
				l += 0.5 * d * d
			}
			return l
		}, gb)
	}
}

func TestBackwardAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := New(rng, []int{2, 3, 1}, Tanh, Identity)
	var cache Cache
	g1 := NewGrads(m)
	m.Forward([]float64{1, 2}, &cache)
	m.Backward(&cache, []float64{1}, g1)
	g2 := NewGrads(m)
	m.Forward([]float64{1, 2}, &cache)
	m.Backward(&cache, []float64{1}, g2)
	m.Forward([]float64{1, 2}, &cache)
	m.Backward(&cache, []float64{1}, g2)
	for l := range g1.W {
		for i := range g1.W[l] {
			if math.Abs(g2.W[l][i]-2*g1.W[l][i]) > 1e-12 {
				t.Fatalf("gradients do not accumulate at layer %d idx %d", l, i)
			}
		}
	}
	g2.Zero()
	if g2.GlobalNorm() != 0 {
		t.Error("Zero did not clear grads")
	}
}

func TestGradScaleClip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := New(rng, []int{2, 2}, Identity, Identity)
	g := NewGrads(m)
	g.W[0] = []float64{3, 0, 0, 0}
	g.B[0] = []float64{4, 0}
	if math.Abs(g.GlobalNorm()-5) > 1e-12 {
		t.Fatalf("norm = %v, want 5", g.GlobalNorm())
	}
	g.ClipGlobalNorm(1)
	if math.Abs(g.GlobalNorm()-1) > 1e-12 {
		t.Errorf("clipped norm = %v, want 1", g.GlobalNorm())
	}
	g.Scale(2)
	if math.Abs(g.GlobalNorm()-2) > 1e-12 {
		t.Errorf("scaled norm = %v, want 2", g.GlobalNorm())
	}
	// clip below threshold is a no-op
	g.ClipGlobalNorm(10)
	if math.Abs(g.GlobalNorm()-2) > 1e-12 {
		t.Error("clip below threshold changed grads")
	}
}

// TestAdamConvergesRegression trains y = sin(x) on [-2, 2] and requires a
// small MSE, exercising forward, backward and Adam together.
func TestAdamConvergesRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := New(rng, []int{1, 16, 16, 1}, Tanh, Identity)
	opt := NewAdam(m, 5e-3)
	g := NewGrads(m)
	var cache Cache
	const batch = 32
	for epoch := 0; epoch < 800; epoch++ {
		g.Zero()
		for b := 0; b < batch; b++ {
			x := rng.Float64()*4 - 2
			out := m.Forward([]float64{x}, &cache)
			m.Backward(&cache, []float64{out[0] - math.Sin(x)}, g)
		}
		g.Scale(1.0 / batch)
		opt.Step(m, g)
	}
	var mse float64
	const n = 200
	for i := 0; i < n; i++ {
		x := -2 + 4*float64(i)/(n-1)
		out := m.Forward([]float64{x}, nil)
		d := out[0] - math.Sin(x)
		mse += d * d
	}
	mse /= n
	if mse > 1e-3 {
		t.Errorf("regression MSE = %v, want < 1e-3", mse)
	}
}

func TestSoftmaxAndLogSoftmax(t *testing.T) {
	p := Softmax([]float64{1, 2, 3}, nil)
	var sum float64
	for _, v := range p {
		if v <= 0 || v >= 1 {
			t.Errorf("softmax out of range: %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sum = %v", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Error("softmax not monotone")
	}
	// numerical stability with huge logits
	p = Softmax([]float64{1000, 1000}, p)
	if math.Abs(p[0]-0.5) > 1e-12 {
		t.Errorf("big-logit softmax = %v", p[0])
	}
	// log-softmax consistency
	logits := []float64{0.3, -1.2, 2.2}
	sm := Softmax(logits, nil)
	for i := range logits {
		if math.Abs(logits[i]-LogSumExp(logits)-math.Log(sm[i])) > 1e-9 {
			t.Errorf("log-softmax[%d] inconsistent", i)
		}
	}
	if LogSumExp(nil) != math.Inf(-1) {
		t.Error("LogSumExp(nil) should be -Inf")
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := New(rng, []int{2, 3, 1}, Tanh, Identity)
	c := m.Clone()
	c.W[0][0] += 100
	if m.W[0][0] == c.W[0][0] {
		t.Error("Clone shares weights")
	}
	if c.NumParams() != m.NumParams() {
		t.Error("Clone wrong shape")
	}
}

// Property: softmax output is always a probability vector for finite logits.
func TestSoftmaxProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var logits []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				logits = append(logits, math.Mod(v, 500))
			}
		}
		if len(logits) == 0 {
			return true
		}
		p := Softmax(logits, nil)
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestActivationString(t *testing.T) {
	if Identity.String() != "identity" || Tanh.String() != "tanh" || ReLU.String() != "relu" {
		t.Error("activation names wrong")
	}
	if Activation(42).String() != "unknown" {
		t.Error("unknown activation name")
	}
}

func TestBackwardSizePanic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(rng, []int{2, 3, 2}, Tanh, Identity)
	var cache Cache
	m.Forward([]float64{1, 2}, &cache)
	defer func() {
		if recover() == nil {
			t.Error("wrong dOut size did not panic")
		}
	}()
	m.Backward(&cache, []float64{1}, NewGrads(m))
}

func TestForwardWithoutCacheMatchesCached(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := New(rng, []int{3, 5, 2}, Tanh, Identity)
	x := []float64{0.2, -0.7, 1.1}
	var cache Cache
	a := m.Forward(x, &cache)
	b := m.Forward(x, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cached vs uncached forward differ: %v vs %v", a, b)
		}
	}
}

func TestXavierInitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := New(rng, []int{10, 20}, Tanh, Identity)
	limit := math.Sqrt(6.0 / 30.0)
	for _, w := range m.W[0] {
		if w < -limit || w > limit {
			t.Fatalf("weight %v outside Xavier bound %v", w, limit)
		}
	}
	for _, b := range m.B[0] {
		if b != 0 {
			t.Fatal("biases should start at zero")
		}
	}
}

// LogSumExp returns log(sum(exp(logits))) stably.
func LogSumExp(logits []float64) float64 {
	maxL := math.Inf(-1)
	for _, l := range logits {
		if l > maxL {
			maxL = l
		}
	}
	if math.IsInf(maxL, -1) {
		return maxL
	}
	var sum float64
	for _, l := range logits {
		sum += math.Exp(l - maxL)
	}
	return maxL + math.Log(sum)
}

// Zero clears the accumulator.
func (g *Grads) Zero() {
	for l := range g.W {
		clear(g.W[l])
		clear(g.B[l])
	}
}
