// Package nn is a small, dependency-free neural-network library sufficient
// for the paper's agent: dense multi-layer perceptrons (the 3-hidden-layer
// 32/16/8 network of §3.1), tanh/ReLU activations, softmax utilities, exact
// backpropagation, and the Adam optimizer. Everything is float64 and
// deterministic given a seeded RNG.
package nn

import "math"

// Activation selects a layer's nonlinearity.
type Activation int

const (
	// Identity is the linear activation, used for output layers.
	Identity Activation = iota
	// Tanh is the hyperbolic tangent.
	Tanh
	// ReLU is the rectified linear unit.
	ReLU
)

// String returns the activation's name.
func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case Tanh:
		return "tanh"
	case ReLU:
		return "relu"
	}
	return "unknown"
}

// derivFromOutput returns da/dz expressed in terms of the activation output
// y = a(z) alone, so backpropagation keeps no pre-activations: tanh' is
// 1 - y*y, and for ReLU y > 0 exactly when z > 0.
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case Tanh:
		return 1 - y*y
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	default:
		return 1
	}
}

// Softmax writes the softmax of logits into out (allocating if nil) and
// returns it. It is numerically stable under large logits.
func Softmax(logits, out []float64) []float64 {
	if out == nil {
		out = make([]float64, len(logits))
	}
	maxL := math.Inf(-1)
	for _, l := range logits {
		if l > maxL {
			maxL = l
		}
	}
	var sum float64
	for i, l := range logits {
		e := math.Exp(l - maxL)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
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
