package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refMadd2x8 is madd2x8's contract as plain Go loops, one chain at a time.
func refMadd2x8(a0, a1, x []float64, xs, xp int, y []float64, ys, n int) {
	for k := 0; k < 8; k++ {
		for j := 0; j < n; j++ {
			a0[k] += x[j*xs] * y[j*ys+k]
		}
		for j := 0; j < n; j++ {
			a1[k] += x[j*xs+xp] * y[j*ys+k]
		}
	}
}

// maddSpecials are the operands whose rounding and propagation a vector
// lane could get wrong: signed zeros and subnormals, then (past the first
// seven) infinities and NaN.
var maddSpecials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1060, -0x1.8p-1030, 0x1p-1022 / 3,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// specialVec is n values: random normals, one in eight of them one of
// maddSpecials and one in four scaled by 2^-520 or 2^500, so products
// underflow into the subnormals. With nonFinite false it draws no
// infinity or NaN, which would turn most long sums into NaN and leave
// little to compare.
func specialVec(rng *rand.Rand, n int, nonFinite bool) []float64 {
	specials := maddSpecials[:7]
	if nonFinite {
		specials = maddSpecials
	}
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(8) {
		case 0:
			v[i] = specials[rng.Intn(len(specials))]
		case 1:
			v[i] = rng.NormFloat64() * 0x1p-520
		case 2:
			v[i] = rng.NormFloat64() * 0x1p+500
		default:
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// sameFloat compares bits, except that any two NaNs match. Go fixes no NaN
// payload: which operand's NaN a multiply or add returns depends on the
// order the compiler gives a commutative operation, and on 386 two Go loops
// of the same shape already disagree. Every non-NaN result, and NaN-ness
// itself, must match exactly.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestMadd2x8 pins the kernel to its contract bit for bit: n = 0, 1 and
// 128 at the strides and pair offsets each of the three matrix products
// passes, on operands laced with signed zeros and subnormals, and on every
// other trial infinities and NaN too, through accumulators that are not 16-byte aligned. Nothing outside
// the sixteen accumulators may change.
func TestMadd2x8(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, n := range []int{0, 1, 128} {
		w := max(n, 1)
		cases := []struct {
			name       string
			xs, xp, ys int
			lenX, lenY int
		}{
			// output pair o, o+1 of a 16-wide delta over n rows of a 40-wide input
			{"gradWeights", 16, 1, 40, w * 16, w * 40},
			// row pair of a w-wide delta over w rows of a 40-wide W
			{"propagateDelta", 1, w, 40, 2 * w, w * 40},
			// row pair of a w-wide input over w rows of an 8-wide transposed W
			{"forwardLayer", 1, w, 8, 2 * w, w * 8},
		}
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(t *testing.T) {
				for trial := 0; trial < 20; trial++ {
					nonFinite := trial%2 == 1
					x, y := specialVec(rng, c.lenX, nonFinite), specialVec(rng, c.lenY, nonFinite)
					// Guards before, between and after the accumulators;
					// a0 starts at an odd index.
					buf := specialVec(rng, 21, nonFinite)
					want := append([]float64(nil), buf...)
					madd2x8(buf[1:9], buf[11:19], x, c.xs, c.xp, y, c.ys, n)
					refMadd2x8(want[1:9], want[11:19], x, c.xs, c.xp, y, c.ys, n)
					for i := range buf {
						if !sameFloat(buf[i], want[i]) {
							t.Fatalf("trial %d: value %d is %v (%#x), want %v (%#x)",
								trial, i, buf[i], math.Float64bits(buf[i]), want[i], math.Float64bits(want[i]))
						}
					}
				}
			})
		}
	}
}

// TestMaddPairPanics: the helper in front of the kernel refuses every call
// that would reach past a slice, so the assembly never does.
func TestMaddPairPanics(t *testing.T) {
	a, x, y := make([]float64, 8), make([]float64, 2*4), make([]float64, 3*8+8)
	maddPair(a, a, x, 1, 4, y, 8, 4) // the largest call that fits
	for _, c := range []struct {
		name   string
		a0, a1 []float64
		x      []float64
		xs, xp int
		y      []float64
		ys, n  int
	}{
		{"short a0", a[:7], a, x, 1, 4, y, 8, 4},
		{"short a1", a, a[:7], x, 1, 4, y, 8, 4},
		{"short a0 at n=0", a[:7], a, nil, 1, 0, nil, 8, 0},
		{"short x", a, a, x[:7], 1, 4, y, 8, 4},
		{"pair past x", a, a, x, 1, 5, y, 8, 4},
		{"short y", a, a, x, 1, 4, y[:len(y)-1], 8, 4},
		{"n past y", a, a, x, 1, 3, y, 8, 5},
		{"negative pair offset", a, a, x, 1, -1, y, 8, 4},
		{"zero stride", a, a, x, 0, 4, y, 8, 4},
		{"negative n", a, a, x, 1, 4, y, 8, -1},
		{"overflowing stride", a, a, x, math.MaxInt / 2, 0, y, 8, 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			maddPair(c.a0, c.a1, c.x, c.xs, c.xp, c.y, c.ys, c.n)
		}()
	}
}
