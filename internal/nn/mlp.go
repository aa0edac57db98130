package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// MLP is a dense multi-layer perceptron. Layer l maps sizes[l] inputs to
// sizes[l+1] outputs through weights W[l] (row-major, out x in) and biases
// B[l], followed by the layer's activation. The output layer conventionally
// uses Identity so callers can apply softmax or use raw values.
type MLP struct {
	Sizes []int
	Acts  []Activation // one per weight layer
	W     [][]float64  // W[l][o*in+i]
	B     [][]float64
}

// New creates an MLP with the given layer sizes (input first, output last),
// hidden activation for every layer but the last, and out activation for the
// last. Weights use Xavier/Glorot uniform initialization from rng.
func New(rng *rand.Rand, sizes []int, hidden, out Activation) *MLP {
	if len(sizes) < 2 {
		panic("nn: need at least input and output sizes")
	}
	for _, s := range sizes {
		if s <= 0 {
			panic("nn: nonpositive layer size")
		}
	}
	m := &MLP{Sizes: append([]int(nil), sizes...)}
	layers := len(sizes) - 1
	m.Acts = make([]Activation, layers)
	m.W = make([][]float64, layers)
	m.B = make([][]float64, layers)
	for l := 0; l < layers; l++ {
		in, outN := sizes[l], sizes[l+1]
		m.Acts[l] = hidden
		if l == layers-1 {
			m.Acts[l] = out
		}
		limit := math.Sqrt(6.0 / float64(in+outN))
		w := make([]float64, in*outN)
		for i := range w {
			w[i] = (rng.Float64()*2 - 1) * limit
		}
		m.W[l] = w
		m.B[l] = make([]float64, outN)
	}
	return m
}

// NumParams returns the total number of weights and biases.
func (m *MLP) NumParams() int {
	n := 0
	for l := range m.W {
		n += len(m.W[l]) + len(m.B[l])
	}
	return n
}

// Finite reports whether every weight and bias is finite: a network with a
// NaN or infinite parameter answers NaN, so it must never serve.
func (m *MLP) Finite() bool {
	for _, layers := range [][][]float64{m.W, m.B} {
		for _, l := range layers {
			for _, v := range l {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
	}
	return true
}

// InputSize returns the network's input dimensionality.
func (m *MLP) InputSize() int { return m.Sizes[0] }

// OutputSize returns the network's output dimensionality.
func (m *MLP) OutputSize() int { return m.Sizes[len(m.Sizes)-1] }

// Cache stores the per-layer activations of one forward pass, for use by
// Backward. A zero Cache is ready; it is reused across calls to avoid
// allocation.
type Cache struct {
	as   [][]float64 // activations per layer, as[0] is the input
	dCur []float64   // scratch for backprop
	dNxt []float64
}

func (c *Cache) ensure(m *MLP) {
	layers := len(m.W)
	if len(c.as) == layers+1 {
		return
	}
	c.as = make([][]float64, layers+1)
	c.as[0] = make([]float64, m.Sizes[0])
	maxW := 0
	for l := 0; l < layers; l++ {
		c.as[l+1] = make([]float64, m.Sizes[l+1])
		if m.Sizes[l+1] > maxW {
			maxW = m.Sizes[l+1]
		}
	}
	if m.Sizes[0] > maxW {
		maxW = m.Sizes[0]
	}
	c.dCur = make([]float64, maxW)
	c.dNxt = make([]float64, maxW)
}

// Forward runs the network on x, storing intermediates in cache (which may
// be nil for inference-only use) and returning the output activations. The
// returned slice aliases cache storage when a cache is supplied and is
// valid until the next Forward with the same cache.
func (m *MLP) Forward(x []float64, cache *Cache) []float64 {
	if len(x) != m.Sizes[0] {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), m.Sizes[0]))
	}
	var local Cache
	if cache == nil {
		cache = &local
	}
	cache.ensure(m)
	copy(cache.as[0], x)
	for l := range m.W {
		a := cache.as[l+1]
		forwardRow(m.W[l], m.B[l], cache.as[l], a)
		activate(a, m.Acts[l])
	}
	return cache.as[len(m.W)]
}

// Grads accumulates parameter gradients with the same shapes as the MLP.
type Grads struct {
	W [][]float64
	B [][]float64
}

// NewGrads allocates a zeroed gradient accumulator for m.
func NewGrads(m *MLP) *Grads {
	g := &Grads{W: make([][]float64, len(m.W)), B: make([][]float64, len(m.B))}
	for l := range m.W {
		g.W[l] = make([]float64, len(m.W[l]))
		g.B[l] = make([]float64, len(m.B[l]))
	}
	return g
}

// Zero clears the accumulator.
func (g *Grads) Zero() {
	for l := range g.W {
		clear(g.W[l])
		clear(g.B[l])
	}
}

// Scale multiplies all gradients by f (e.g. 1/batchSize).
func (g *Grads) Scale(f float64) {
	for l := range g.W {
		for i := range g.W[l] {
			g.W[l][i] *= f
		}
		for i := range g.B[l] {
			g.B[l][i] *= f
		}
	}
}

// GlobalNorm returns the L2 norm over all gradients.
func (g *Grads) GlobalNorm() float64 {
	var s float64
	for l := range g.W {
		for _, v := range g.W[l] {
			s += v * v
		}
		for _, v := range g.B[l] {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// ClipGlobalNorm rescales gradients so their global norm is at most c.
func (g *Grads) ClipGlobalNorm(c float64) {
	n := g.GlobalNorm()
	if n > c && n > 0 {
		g.Scale(c / n)
	}
}

// Backward accumulates into g the gradients of a scalar loss whose partial
// derivatives with respect to the network OUTPUT activations are dOut. The
// cache must hold the forward pass of the corresponding input. Call once per
// sample; gradients sum across calls.
func (m *MLP) Backward(cache *Cache, dOut []float64, g *Grads) {
	layers := len(m.W)
	if len(dOut) != m.Sizes[layers] {
		panic(fmt.Sprintf("nn: dOut size %d, want %d", len(dOut), m.Sizes[layers]))
	}
	// delta holds dL/dz for the current layer.
	delta := cache.dCur[:m.Sizes[layers]]
	for o := range delta {
		delta[o] = dOut[o] * m.Acts[layers-1].derivFromOutput(cache.as[layers][o])
	}
	for l := layers - 1; l >= 0; l-- {
		in := cache.as[l]
		nIn := m.Sizes[l]
		gw := g.W[l]
		gb := g.B[l]
		for o, d := range delta {
			gb[o] += d
			row := gw[o*nIn : (o+1)*nIn]
			for i, v := range in {
				row[i] += d * v
			}
		}
		if l == 0 {
			break
		}
		// propagate delta to layer l-1
		prev := cache.dNxt[:nIn]
		clear(prev)
		w := m.W[l]
		for o, d := range delta {
			row := w[o*nIn : (o+1)*nIn]
			for i := range prev {
				prev[i] += d * row[i]
			}
		}
		for i := range prev {
			prev[i] *= m.Acts[l-1].derivFromOutput(cache.as[l][i])
		}
		cache.dCur, cache.dNxt = cache.dNxt, cache.dCur
		delta = cache.dCur[:nIn]
		copy(delta, prev)
	}
}

// Clone deep-copies the network.
func (m *MLP) Clone() *MLP {
	c := &MLP{
		Sizes: append([]int(nil), m.Sizes...),
		Acts:  append([]Activation(nil), m.Acts...),
		W:     make([][]float64, len(m.W)),
		B:     make([][]float64, len(m.B)),
	}
	for l := range m.W {
		c.W[l] = append([]float64(nil), m.W[l]...)
		c.B[l] = append([]float64(nil), m.B[l]...)
	}
	return c
}
