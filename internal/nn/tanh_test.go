package nn

import (
	"math"
	"math/rand"
	"testing"
)

// tanhSpecials are the inputs at the edges of tanhPairs' range and of
// math.tanh's branches: signed zeros, the rational branch's bound ±0.625
// and its neighbours toward zero, subnormals, the saturation edge
// 0.5*MAXLOG ≈ 44.01 with ±44 and ±45 around it, infinities, and NaNs
// with either sign and more than one payload.
var tanhSpecials = []float64{
	0, math.Copysign(0, -1),
	0.625, -0.625, math.Nextafter(0.625, 0), math.Nextafter(-0.625, 0),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1.8p-1040,
	44, -44, 45, -45,
	math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0xfff8000000000001), math.Float64frombits(0x7ff0000000000123),
}

// tanhInput draws one value: uniform in ±1 (both branches), N(0, 3), a
// random bit pattern (any exponent, NaNs with random payloads), uniform in
// the rational branch, or one of tanhSpecials.
func tanhInput(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0, 1, 2, 3:
		return rng.Float64()*2 - 1
	case 4, 5:
		return rng.NormFloat64() * 3
	case 6:
		return math.Float64frombits(rng.Uint64())
	case 7, 8:
		return (rng.Float64()*2 - 1) * 0.62
	}
	return tanhSpecials[rng.Intn(len(tanhSpecials))]
}

// checkActivateTanh runs activate(z, Tanh) and requires every element to
// have the bits of math.Tanh of its input, NaNs included.
func checkActivateTanh(t *testing.T, z []float64) {
	t.Helper()
	in := append([]float64(nil), z...)
	activate(z, Tanh)
	for k, v := range in {
		if want := math.Tanh(v); math.Float64bits(z[k]) != math.Float64bits(want) {
			t.Fatalf("len %d: element %d: tanh(%v = %#x) = %#x, math.Tanh gives %#x",
				len(in), k, v, math.Float64bits(v), math.Float64bits(z[k]), math.Float64bits(want))
		}
	}
}

// TestTanhLanes pins activate's Tanh, and so tanhPairs, to math.Tanh bit
// for bit over more than 10⁶ inputs: slices of lengths 0–9 and longer odd
// ones, starting at an even and an odd element of their buffer, drawn from
// tanhInput; then every special at every position of an in-range slice of
// each length 1–9, which walks the stop-and-resume path with the special
// in either lane of a pair; then 2²¹ stratified values in ±[0.5, 0.625),
// where the rational branch's highest term weighs most: a one-ulp change to
// tanhP[0] moves about five results in a million there and one or two
// nearer zero.
func TestTanhLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	buf := make([]float64, 1+1001)
	lens := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 127, 1001}
	checked := 0
	for checked < 1_000_000 {
		for _, n := range lens {
			for off := 0; off < 2; off++ {
				z := buf[off : off+n]
				for k := range z {
					z[k] = tanhInput(rng)
				}
				checkActivateTanh(t, z)
				checked += n
			}
		}
	}
	for n := 1; n <= 9; n++ {
		for pos := 0; pos < n; pos++ {
			for _, sp := range tanhSpecials {
				for off := 0; off < 2; off++ {
					z := buf[off : off+n]
					for k := range z {
						z[k] = (rng.Float64()*2 - 1) * 0.62
					}
					z[pos] = sp
					checkActivateTanh(t, z)
				}
			}
		}
	}
	const strata = 1 << 21
	edge := make([]float64, strata)
	for k := range edge {
		edge[k] = 0.5 + 0.125*(float64(k)+rng.Float64())/strata
		if k%2 == 1 {
			edge[k] = -edge[k]
		}
	}
	checkActivateTanh(t, edge)
}

// TestTanhPairsBounds runs the kernel on subslices of a buffer filled with
// an in-range sentinel, which the kernel would change if it touched it: the
// sentinels must survive, the first ret elements must hold math.Tanh of
// their inputs and the rest their inputs. On in-range data it must finish
// every pair.
func TestTanhPairsBounds(t *testing.T) {
	const sentinel = 0.5
	rng := rand.New(rand.NewSource(57))
	buf := make([]float64, 16)
	for trial := 0; trial < 400; trial++ {
		n, off := rng.Intn(10), rng.Intn(4)
		inRange := trial%2 == 0
		for k := range buf {
			buf[k] = sentinel
		}
		z := buf[off : off+n]
		for k := range z {
			z[k] = (rng.Float64()*2 - 1) * 0.62
			if !inRange && rng.Intn(3) == 0 {
				z[k] = tanhSpecials[rng.Intn(len(tanhSpecials))]
			}
		}
		in := append([]float64(nil), z...)
		ret := tanhPairs(z)
		if ret < 0 || ret > n || inRange && ret < n&^1 {
			t.Fatalf("n=%d off=%d in range=%v: tanhPairs returned %d", n, off, inRange, ret)
		}
		for k, v := range in {
			want := v
			if k < ret {
				want = math.Tanh(v)
			}
			if math.Float64bits(z[k]) != math.Float64bits(want) {
				t.Fatalf("n=%d off=%d ret=%d: element %d = %#x, want %#x", n, off, ret, k, math.Float64bits(z[k]), math.Float64bits(want))
			}
		}
		for k, v := range buf {
			if (k < off || k >= off+n) && v != sentinel {
				t.Fatalf("n=%d off=%d: buf[%d] = %v, the sentinel was overwritten", n, off, k, v)
			}
		}
	}
}

// BenchmarkActivate is activate(·, Tanh) over 4 096 pre-activations, 94 % in
// the rational branch and 6 % in the Exp one (the hidden layers' measured
// mix over a training run), in ns per element, a copy that restores the
// inputs included.
func BenchmarkActivate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 4096)
	for k := range src {
		if rng.Intn(100) < 94 {
			src[k] = (rng.Float64()*2 - 1) * 0.62
		} else {
			src[k] = math.Copysign(0.625+rng.Float64()*2, rng.Float64()-0.5)
		}
	}
	z := make([]float64, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(z, src)
		activate(z, Tanh)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/elem")
}
