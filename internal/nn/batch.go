package nn

import (
	"fmt"
	"math"
)

// The batch kernels process rows stacked samples at a time and are pinned
// bit for bit to the per-sample Forward and Backward. The contract that
// makes that possible is an order contract, not a tolerance:
//
//   - per output row, a dot product starts from the bias and adds
//     w[i]*in[i] with i ascending (Forward's order);
//   - per parameter, a gradient accumulator adds d*v with the sample index
//     ascending (the order N Backward calls give it), and a propagated
//     delta starts from +0 and adds d[o]*w[o][i] with o ascending;
//   - every accumulation keeps the expression shape acc += a*b, so ports
//     whose compilers fuse multiply-add fuse both paths alike.
//
// The speed comes only from which accumulators advance together: several
// independent chains are held in registers per loaded weight or delta,
// where the per-sample code is one add-latency chain that reloads and
// stores every gradient once per sample. No chain's own operation sequence
// changes, so neither blocking nor the caller's chunking can move a bit.

// BatchCache holds the per-layer activation matrices of one ForwardBatch
// call and the delta matrices BackwardBatch works in. A zero BatchCache is
// ready; reusing one across calls amortizes the matrix allocations, growing
// only when a larger batch arrives.
type BatchCache struct {
	as [][]float64 // as[l] is rows x Sizes[l], row-major; as[0] is the input

	// dL/dz of the layer being back-propagated and of the one below it,
	// each rows x (widest layer), row-major; swapped per layer.
	dCur, dNxt []float64
}

func (c *BatchCache) ensure(m *MLP, rows int) {
	layers := len(m.W)
	if len(c.as) != layers+1 {
		c.as = make([][]float64, layers+1)
	}
	for l := 0; l <= layers; l++ {
		need := rows * m.Sizes[l]
		if cap(c.as[l]) < need {
			c.as[l] = make([]float64, need)
		}
		c.as[l] = c.as[l][:need]
	}
}

// ForwardBatch runs the network on rows stacked inputs (xs row-major,
// rows x InputSize) and returns the stacked outputs (rows x OutputSize).
// The returned slice aliases cache storage when a cache is supplied and is
// valid until the next ForwardBatch with the same cache.
//
// Row r of the result is bit-identical to Forward of row r alone: each
// row's dot products accumulate in exactly the element order Forward uses,
// so batching decisions — the rollout driver's one-forward-per-wave path —
// can never change a sampled action or logged probability.
func (m *MLP) ForwardBatch(xs []float64, rows int, cache *BatchCache) []float64 {
	if rows < 0 || len(xs) != rows*m.Sizes[0] {
		panic(fmt.Sprintf("nn: batch input length %d, want %d rows x %d", len(xs), rows, m.Sizes[0]))
	}
	var local BatchCache
	if cache == nil {
		cache = &local
	}
	cache.ensure(m, rows)
	copy(cache.as[0], xs)
	for l := range m.W {
		forwardLayer(m.W[l], m.B[l], m.Acts[l], m.Sizes[l], m.Sizes[l+1], cache.as[l], cache.as[l+1], rows)
	}
	return cache.as[len(m.W)]
}

// forwardLayer computes one dense layer for rows stacked inputs. Four rows
// advance together: each weight row is read once per block and feeds four
// independent sums, one per input row. A block smaller than four runs
// forwardRow, Forward's kernel. Sums land in outAll as pre-activations and
// one pass at the end turns them into activations.
func forwardLayer(w, bias []float64, act Activation, nIn, nOut int, inAll, outAll []float64, rows int) {
	r := 0
	for ; r+4 <= rows; r += 4 {
		in := inAll[r*nIn : (r+4)*nIn]
		in0, in1, in2, in3 := in[:nIn], in[nIn:2*nIn], in[2*nIn:3*nIn], in[3*nIn:]
		out := outAll[r*nOut : (r+4)*nOut]
		for o := 0; o < nOut; o++ {
			out[o], out[nOut+o], out[2*nOut+o], out[3*nOut+o] = dot4(w[o*nIn:(o+1)*nIn], in0, in1, in2, in3, bias[o])
		}
	}
	for ; r < rows; r++ {
		forwardRow(w, bias, inAll[r*nIn:(r+1)*nIn], outAll[r*nOut:(r+1)*nOut])
	}
	activate(outAll[:rows*nOut], act)
}

// forwardRow writes the pre-activations of one input row: out[o] = bias[o]
// plus w[o][i]*in[i] added with i ascending. Four outputs advance together,
// so one load of in[i] feeds four independent add chains where a loop over
// outputs is one chain at a time, each add waiting on the last; the outputs
// past the last multiple of four run one at a time. Each sum's own sequence
// of operations is the one-output loop's, so the bits are too.
func forwardRow(w, bias, in, out []float64) {
	nIn := len(in)
	o := 0
	for ; o+4 <= len(out); o += 4 {
		w0, w1, w2, w3 := w[o*nIn:][:nIn], w[(o+1)*nIn:][:nIn], w[(o+2)*nIn:][:nIn], w[(o+3)*nIn:][:nIn]
		s0, s1, s2, s3 := bias[o], bias[o+1], bias[o+2], bias[o+3]
		for i, v := range in {
			s0 += w0[i] * v
			s1 += w1[i] * v
			s2 += w2[i] * v
			s3 += w3[i] * v
		}
		out[o], out[o+1], out[o+2], out[o+3] = s0, s1, s2, s3
	}
	for ; o < len(out); o++ {
		sum := bias[o]
		row := w[o*nIn : (o+1)*nIn]
		for i, v := range in {
			sum += row[i] * v
		}
		out[o] = sum
	}
}

// activate applies act to every pre-activation in z, in place; Identity (and
// any unknown activation) leaves z as it is.
func activate(z []float64, act Activation) {
	switch act {
	case Tanh:
		for k, v := range z {
			z[k] = math.Tanh(v)
		}
	case ReLU:
		for k, v := range z {
			if v < 0 {
				z[k] = 0
			}
		}
	}
}

// dot4 returns b + row·x0, b + row·x1, b + row·x2 and b + row·x3, each sum
// adding row[i]*x[i] with i ascending.
//
// It is a leaf kept out of line on purpose, like madd4 below: inlined into
// its caller's loop nest the register allocator spills the loop counter (or,
// with more accumulators, the accumulators themselves) to the stack, and the
// store-to-load round trip per iteration costs more than the blocking wins
// (0.57 vs 0.35 ns per multiply-add on the 32-wide layer).
//
//go:noinline
func dot4(row, x0, x1, x2, x3 []float64, b float64) (s0, s1, s2, s3 float64) {
	x0, x1, x2, x3 = x0[:len(row)], x1[:len(row)], x2[:len(row)], x3[:len(row)]
	s0, s1, s2, s3 = b, b, b, b
	for i, w := range row {
		s0 += w * x0[i]
		s1 += w * x1[i]
		s2 += w * x2[i]
		s3 += w * x3[i]
	}
	return s0, s1, s2, s3
}

// BackwardBatch accumulates into g the gradients of the rows samples of the
// preceding ForwardBatch on cache, given the loss's partial derivatives with
// respect to the network OUTPUT activations, dOut (rows x OutputSize,
// row-major). Gradients sum across calls.
//
// The result is bit-identical to calling Forward and Backward once per row
// in row order on the same g: each parameter's accumulator is loaded from
// g, advanced over the rows in ascending order and stored, so it sees
// exactly the additions the per-sample calls give it — and therefore the
// same bits however a batch is cut into consecutive BackwardBatch calls.
func (m *MLP) BackwardBatch(cache *BatchCache, dOut []float64, rows int, g *Grads) {
	layers := len(m.W)
	if rows < 0 || len(dOut) != rows*m.Sizes[layers] {
		panic(fmt.Sprintf("nn: batch dOut length %d, want %d rows x %d", len(dOut), rows, m.Sizes[layers]))
	}
	if len(cache.as) != layers+1 || len(cache.as[0]) != rows*m.Sizes[0] {
		panic(fmt.Sprintf("nn: BackwardBatch of %d rows without a matching ForwardBatch", rows))
	}
	if rows == 0 {
		return
	}
	maxW := 0
	for _, s := range m.Sizes {
		maxW = max(maxW, s)
	}
	if cap(cache.dCur) < rows*maxW {
		cache.dCur = make([]float64, rows*maxW)
		cache.dNxt = make([]float64, rows*maxW)
	}

	nOut := m.Sizes[layers]
	delta := cache.dCur[:rows*nOut]
	scaleByDeriv(delta, dOut, cache.as[layers], m.Acts[layers-1])
	for l := layers - 1; l >= 0; l-- {
		nIn, nOut := m.Sizes[l], m.Sizes[l+1]
		in := cache.as[l]
		gradBias(g.B[l], delta, nOut, rows)
		gradWeights(g.W[l], delta, in, nIn, nOut, rows)
		if l == 0 {
			break
		}
		prev := cache.dNxt[:rows*nIn]
		propagateDelta(prev, delta, m.W[l], nIn, nOut, rows)
		scaleByDeriv(prev, prev, in, m.Acts[l-1])
		cache.dCur, cache.dNxt = cache.dNxt, cache.dCur
		delta = prev
	}
}

// scaleByDeriv writes dst[k] = src[k] * da/dz, the activation's derivative
// taken from the layer output y[k] alone.
func scaleByDeriv(dst, src, y []float64, act Activation) {
	src, y = src[:len(dst)], y[:len(dst)]
	if act == Tanh {
		// Spelled out: through derivFromOutput's switch a whole PPO update
		// measured 4 % slower.
		for k := range dst {
			dst[k] = src[k] * (1 - y[k]*y[k])
		}
		return
	}
	for k := range dst {
		dst[k] = src[k] * act.derivFromOutput(y[k])
	}
}

// gradBias adds every row's delta to the bias gradients, rows ascending.
func gradBias(gb, delta []float64, nOut, rows int) {
	for r := 0; r < rows; r++ {
		for o, d := range delta[r*nOut : (r+1)*nOut] {
			gb[o] += d
		}
	}
}

// gradWeights adds delta[r][o]*in[r][i] to every weight gradient, rows
// ascending: output o's gradient row advances over column o of delta and
// the rows of in.
func gradWeights(gw, delta, in []float64, nIn, nOut, rows int) {
	for o := 0; o < nOut; o++ {
		maddRow(gw[o*nIn:(o+1)*nIn], delta[o:], nOut, in, nIn)
	}
}

// propagateDelta computes prev[r][i] = sum over o of delta[r][o]*w[o][i],
// each sum starting from +0 and adding with o ascending: row r of prev
// advances over row r of delta and the rows of w.
func propagateDelta(prev, delta, w []float64, nIn, nOut, rows int) {
	clear(prev)
	for r := 0; r < rows; r++ {
		maddRow(prev[r*nIn:(r+1)*nIn], delta[r*nOut:(r+1)*nOut], 1, w, nIn)
	}
}

// maddRow adds to every acc[k] the products x[j*xs]*y[j*ys+k] for
// j = 0, 1, ... while j*xs < len(x), j ascending — a strided column of x
// against the rows of y. Four accumulators at a time are loaded once,
// advanced over the whole run in registers and stored once.
func maddRow(acc, x []float64, xs int, y []float64, ys int) {
	k := 0
	for ; k+4 <= len(acc); k += 4 {
		madd4(acc[k:k+4], x, xs, y[k:], ys)
	}
	for ; k < len(acc); k++ {
		a := acc[k]
		for xi, yi := 0, k; xi < len(x); xi, yi = xi+xs, yi+ys {
			a += x[xi] * y[yi]
		}
		acc[k] = a
	}
}

// madd4 is maddRow's four-accumulator block; see dot4 for why it is not
// inlined. Four chains, not eight: with eight the compiler spills two
// accumulators and the block runs slower (0.35 vs 0.33 ns per
// multiply-add out of line, 0.48 inlined).
//
//go:noinline
func madd4(acc, x []float64, xs int, y []float64, ys int) {
	acc = acc[:4]
	a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
	for xi, yi := 0, 0; xi < len(x); xi, yi = xi+xs, yi+ys {
		d := x[xi]
		v := y[yi : yi+4 : yi+4]
		a0 += d * v[0]
		a1 += d * v[1]
		a2 += d * v[2]
		a3 += d * v[3]
	}
	acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
}
