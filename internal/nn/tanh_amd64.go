package nn

// tanhPairs applies math.Tanh to z[0], z[1], … in place, two elements at a
// time, and returns how many it finished: an even count that stops at the
// first pair with an element outside 0 < |x| < 0.625 (zero, NaN, or one
// that math.tanh sends to its Exp or saturated branch), or with one element
// left. It reads and writes only z[0:len(z)], so the slice expression that
// makes its argument is its bounds check; activate finishes the element it
// stopped at and calls it again at the next element in range.
//
// tanh_amd64.s computes math.tanh's rational branch in SSE2 lanes with its
// constants and its order of operations: every lane is rounded after each
// MULPD, ADDPD and DIVPD exactly as the scalar MULSD, ADDSD and DIVSD of Go
// code are, and Go does not fuse multiply-add on amd64, so every result
// has math.Tanh's bits. Zeros stay out because the formula turns −0 into
// +0, and NaNs because math.Tanh returns their payload as it is.
//
//go:noescape
func tanhPairs(z []float64) int
