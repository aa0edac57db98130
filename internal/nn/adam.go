package nn

import (
	"fmt"
	"math"
)

// Adam implements the Adam optimizer (Kingma & Ba) over an MLP's parameters.
type Adam struct {
	LR      float64 // learning rate (paper: 1e-3)
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t      int
	mW, vW [][]float64
	mB, vB [][]float64
}

// NewAdam creates an optimizer for m with the given learning rate and
// standard moment decay rates (0.9, 0.999, eps 1e-8).
func NewAdam(m *MLP, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
	a.mW = make([][]float64, len(m.W))
	a.vW = make([][]float64, len(m.W))
	a.mB = make([][]float64, len(m.B))
	a.vB = make([][]float64, len(m.B))
	for l := range m.W {
		a.mW[l] = make([]float64, len(m.W[l]))
		a.vW[l] = make([]float64, len(m.W[l]))
		a.mB[l] = make([]float64, len(m.B[l]))
		a.vB[l] = make([]float64, len(m.B[l]))
	}
	return a
}

// Step applies one descent update to m using gradients g (of the loss to
// minimize).
func (a *Adam) Step(m *MLP, g *Grads) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for l := range m.W {
		adamUpdate(m.W[l], g.W[l], a.mW[l], a.vW[l], a.LR, a.Beta1, a.Beta2, a.Epsilon, c1, c2)
		adamUpdate(m.B[l], g.B[l], a.mB[l], a.vB[l], a.LR, a.Beta1, a.Beta2, a.Epsilon, c1, c2)
	}
}

func adamUpdate(p, g, mo, vo []float64, lr, b1, b2, eps, c1, c2 float64) {
	for i := range p {
		mo[i] = b1*mo[i] + (1-b1)*g[i]
		vo[i] = b2*vo[i] + (1-b2)*g[i]*g[i]
		mh := mo[i] / c1
		vh := vo[i] / c2
		p[i] -= lr * mh / (math.Sqrt(vh) + eps)
	}
}

// AdamState is the serializable optimizer state: the step counter and both
// moment estimates for every parameter. Together with the network weights
// it makes an interrupted training run resumable bit-for-bit — dropping
// the moments and restarting Adam cold changes every subsequent update.
type AdamState struct {
	T      int
	MW, VW [][]float64
	MB, VB [][]float64
}

// State returns a deep copy of the optimizer's mutable state, safe to
// serialize while training continues.
func (a *Adam) State() AdamState {
	cp := func(src [][]float64) [][]float64 {
		out := make([][]float64, len(src))
		for i := range src {
			out[i] = append([]float64(nil), src[i]...)
		}
		return out
	}
	return AdamState{T: a.t, MW: cp(a.mW), VW: cp(a.vW), MB: cp(a.mB), VB: cp(a.vB)}
}

// Restore installs a previously captured state, validating that its shape
// matches the optimizer's (i.e. the network it was created for). The
// state is copied in, so the caller's slices stay independent.
func (a *Adam) Restore(s AdamState) error {
	if s.T < 0 {
		return fmt.Errorf("nn: adam restore: negative step count %d", s.T)
	}
	check := func(name string, dst, src [][]float64) error {
		if len(src) != len(dst) {
			return fmt.Errorf("nn: adam restore: %s has %d layers, want %d", name, len(src), len(dst))
		}
		for l := range src {
			if len(src[l]) != len(dst[l]) {
				return fmt.Errorf("nn: adam restore: %s layer %d has %d values, want %d",
					name, l, len(src[l]), len(dst[l]))
			}
		}
		return nil
	}
	for _, c := range []struct {
		name     string
		dst, src [][]float64
	}{{"MW", a.mW, s.MW}, {"VW", a.vW, s.VW}, {"MB", a.mB, s.MB}, {"VB", a.vB, s.VB}} {
		if err := check(c.name, c.dst, c.src); err != nil {
			return err
		}
	}
	a.t = s.T
	install := func(dst, src [][]float64) {
		for l := range src {
			copy(dst[l], src[l])
		}
	}
	install(a.mW, s.MW)
	install(a.vW, s.VW)
	install(a.mB, s.MB)
	install(a.vB, s.VB)
	return nil
}
