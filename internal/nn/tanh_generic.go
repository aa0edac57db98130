//go:build !amd64

package nn

import "math"

// tanhPairs applies math.Tanh to every element of z in place and returns
// len(z): the contract of tanh_amd64.s with no element left over.
func tanhPairs(z []float64) int {
	for k, v := range z {
		z[k] = math.Tanh(v)
	}
	return len(z)
}
