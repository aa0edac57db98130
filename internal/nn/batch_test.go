package nn

import (
	"math"
	"math/rand"
	"testing"
)

// oracleNets are the networks the batch kernels are pinned on: the paper's
// tanh shape, a ReLU net (exact zeros, so ±0 products reach the
// accumulators), and widths that are multiples of neither 4 nor 8, so every
// tail loop of the blocked kernels runs.
func oracleNets(rng *rand.Rand) []*MLP {
	return []*MLP{
		New(rng, []int{9, 32, 16, 8, 2}, Tanh, Identity),
		New(rng, []int{8, 32, 16, 8, 2}, ReLU, Identity),
		New(rng, []int{9, 5, 3, 2}, Tanh, Identity),
		New(rng, []int{9, 5, 3, 2}, ReLU, Tanh),
	}
}

// oracleRows straddle the 4-row block and a 128-row chunk; the trailing 5
// shrinks the batch so a reused cache is exercised too.
var oracleRows = []int{1, 2, 3, 4, 5, 7, 8, 9, 127, 128, 129, 5}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestForwardBatchBitIdentical pins the batched forward to the scalar one:
// every row of a ForwardBatch result must equal Forward of that row alone,
// bit for bit — the rollout driver's correctness rests on it.
func TestForwardBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n, m := range oracleNets(rng) {
		var cache Cache
		var bcache BatchCache
		nIn, nOut := m.InputSize(), m.OutputSize()
		for _, rows := range oracleRows {
			xs := randVec(rng, rows*nIn)
			got := m.ForwardBatch(xs, rows, &bcache)
			if len(got) != rows*nOut {
				t.Fatalf("net %d rows=%d: output length %d, want %d", n, rows, len(got), rows*nOut)
			}
			for r := 0; r < rows; r++ {
				want := m.Forward(xs[r*nIn:(r+1)*nIn], &cache)
				for o := 0; o < nOut; o++ {
					if math.Float64bits(got[r*nOut+o]) != math.Float64bits(want[o]) {
						t.Fatalf("net %d rows=%d row=%d out=%d: batch %v != scalar %v",
							n, rows, r, o, got[r*nOut+o], want[o])
					}
				}
			}
		}
	}
}

func TestForwardBatchZeroRows(t *testing.T) {
	m := New(rand.New(rand.NewSource(1)), []int{4, 3, 2}, Tanh, Identity)
	if out := m.ForwardBatch(nil, 0, nil); len(out) != 0 {
		t.Fatalf("zero-row batch returned %d values", len(out))
	}
}

func TestBackwardBatchZeroRows(t *testing.T) {
	m := New(rand.New(rand.NewSource(1)), []int{4, 3, 2}, Tanh, Identity)
	var bcache BatchCache
	m.ForwardBatch(nil, 0, &bcache)
	g := NewGrads(m)
	m.BackwardBatch(&bcache, nil, 0, g)
	if g.GlobalNorm() != 0 {
		t.Fatal("zero-row backward touched the gradients")
	}
}

func gradsBitEqual(a, b *Grads) bool {
	eq := func(x, y [][]float64) bool {
		for l := range x {
			for i := range x[l] {
				if math.Float64bits(x[l][i]) != math.Float64bits(y[l][i]) {
					return false
				}
			}
		}
		return true
	}
	return eq(a.W, b.W) && eq(a.B, b.B)
}

// TestBackwardBatchBitIdentical pins BackwardBatch to the per-sample path:
// the gradients of N rows must equal, bit for bit, those of N Forward +
// Backward calls in row order — in one call, under every cut of the rows
// into two consecutive chunks, and when the accumulator starts non-zero.
func TestBackwardBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for n, m := range oracleNets(rng) {
		var cache Cache
		var bcache BatchCache
		nIn, nOut := m.InputSize(), m.OutputSize()
		for _, rows := range oracleRows {
			xs := randVec(rng, rows*nIn)
			dOut := randVec(rng, rows*nOut)
			for _, seeded := range []bool{false, true} {
				// A non-zero start is the state a chunked caller hands
				// BackwardBatch from its second chunk on.
				newG := func() *Grads {
					if seeded {
						return randomGrads(rand.New(rand.NewSource(7)), m)
					}
					return NewGrads(m)
				}
				want := newG()
				for r := 0; r < rows; r++ {
					m.Forward(xs[r*nIn:(r+1)*nIn], &cache)
					m.Backward(&cache, dOut[r*nOut:(r+1)*nOut], want)
				}
				// cut == rows is the single call; every smaller cut splits
				// the rows into [0, cut) and [cut, rows).
				for cut := 1; cut <= rows; cut++ {
					got := newG()
					m.ForwardBatch(xs[:cut*nIn], cut, &bcache)
					m.BackwardBatch(&bcache, dOut[:cut*nOut], cut, got)
					if rest := rows - cut; rest > 0 {
						m.ForwardBatch(xs[cut*nIn:], rest, &bcache)
						m.BackwardBatch(&bcache, dOut[cut*nOut:], rest, got)
					}
					if !gradsBitEqual(got, want) {
						t.Fatalf("net %d rows=%d cut=%d seeded=%v: batch gradients differ from per-sample",
							n, rows, cut, seeded)
					}
				}
			}
		}
	}
}

func TestBackwardBatchSizePanics(t *testing.T) {
	m := New(rand.New(rand.NewSource(1)), []int{2, 3, 2}, Tanh, Identity)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	var bcache BatchCache
	m.ForwardBatch([]float64{1, 2, 3, 4}, 2, &bcache)
	mustPanic("wrong dOut length", func() {
		m.BackwardBatch(&bcache, []float64{1, 1, 1}, 2, NewGrads(m))
	})
	mustPanic("rows other than the forward's", func() {
		m.BackwardBatch(&bcache, []float64{1, 1}, 1, NewGrads(m))
	})
	mustPanic("no preceding forward", func() {
		m.BackwardBatch(&BatchCache{}, []float64{1, 1}, 1, NewGrads(m))
	})
}

// refForward is the one-row forward as it was before forwardRow, kept as the
// kernel's oracle: per output one sum from the bias, adding w[o][i]*in[i]
// with i ascending, then the activation's own switch.
func refForward(m *MLP, x []float64) []float64 {
	in := append([]float64(nil), x...)
	for l := range m.W {
		nIn := m.Sizes[l]
		a := make([]float64, m.Sizes[l+1])
		for o := range a {
			sum := m.B[l][o]
			row := m.W[l][o*nIn : (o+1)*nIn]
			for i, v := range in {
				sum += row[i] * v
			}
			switch m.Acts[l] {
			case Tanh:
				sum = math.Tanh(sum)
			case ReLU:
				if sum < 0 {
					sum = 0
				}
			}
			a[o] = sum
		}
		in = a
	}
	return in
}

// TestForwardRowOracle pins Forward, and every row of ForwardBatch at 1 to 9
// rows (one 4-row block and both tails), to refForward bit for bit: the
// paper's shapes with one and two outputs, widths that are 1, 2 and 3 past a
// multiple of four, under each activation. Inputs carry exact and negative
// zeros so ReLU's and the sums' signed zeros are compared too.
func TestForwardRowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	shapes := [][]int{{8, 32, 16, 8, 2}, {8, 32, 16, 8, 1}, {9, 5, 6, 7, 3}, {3, 13, 2}}
	for _, sizes := range shapes {
		for _, act := range []Activation{Tanh, ReLU, Identity} {
			m := New(rng, sizes, act, Identity)
			for l := range m.B {
				for o := range m.B[l] {
					m.B[l][o] = rng.NormFloat64() / 4
				}
			}
			nIn, nOut := m.InputSize(), m.OutputSize()
			var cache Cache
			var bcache BatchCache
			for rows := 1; rows <= 9; rows++ {
				xs := randVec(rng, rows*nIn)
				xs[0], xs[len(xs)-1] = 0, math.Copysign(0, -1)
				got := m.ForwardBatch(xs, rows, &bcache)
				for r := 0; r < rows; r++ {
					x := xs[r*nIn : (r+1)*nIn]
					want := refForward(m, x)
					single := m.Forward(x, &cache)
					for o := 0; o < nOut; o++ {
						w := math.Float64bits(want[o])
						if math.Float64bits(single[o]) != w || math.Float64bits(got[r*nOut+o]) != w {
							t.Fatalf("%v %v rows=%d row=%d out=%d: Forward %v, ForwardBatch %v, oracle %v",
								sizes, act, rows, r, o, single[o], got[r*nOut+o], want[o])
						}
					}
				}
			}
		}
	}
}

// BenchmarkForward is one row through the paper's network (8 -> 32 -> 16 ->
// 8 -> 2, tanh), the forward a served decision or a simulate inspection runs.
func BenchmarkForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := New(rng, []int{8, 32, 16, 8, 2}, Tanh, Identity)
	x := randVec(rng, 8)
	var cache Cache
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Forward(x, &cache)
	}
}
