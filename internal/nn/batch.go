package nn

import (
	"fmt"
	"math"
	"math/bits"
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
// stores every gradient once per sample. On amd64 the three matrix products
// advance sixteen chains at once in SSE2 lanes (madd_amd64.s), and a lane
// rounds each multiply and add exactly as scalar code does. No chain's own
// operation sequence changes, so neither blocking, the lanes, nor the
// caller's chunking can move a bit.

// BatchCache holds the per-layer activation matrices of one ForwardBatch
// call and the delta matrices BackwardBatch works in. A zero BatchCache is
// ready; reusing one across calls amortizes the matrix allocations, growing
// only when a larger batch arrives.
type BatchCache struct {
	as [][]float64 // as[l] is rows x Sizes[l], row-major; as[0] is the input

	// wt is the transpose of the layer ForwardBatch is computing, sized
	// for the largest layer and rebuilt per layer per call.
	wt []float64

	// dL/dz of the layer being back-propagated and of the one below it,
	// each rows x (widest layer), row-major; swapped per layer.
	dCur, dNxt []float64

	// ones is at least rows 1s, the multiplier gradBias feeds maddRow.
	ones []float64
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
	maxW := 0
	for _, w := range m.W {
		maxW = max(maxW, len(w))
	}
	if cap(c.wt) < maxW {
		c.wt = make([]float64, maxW)
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
		forwardLayer(m.W[l], cache.wt, m.B[l], m.Acts[l], m.Sizes[l], m.Sizes[l+1], cache.as[l], cache.as[l+1], rows)
	}
	return cache.as[len(m.W)]
}

// forwardLayer computes one dense layer for rows stacked inputs. Pairs of
// rows run through maddPair against blocks of eight outputs: wt is filled
// with the transpose of w (nIn x nOut), so for input i the weights of eight
// consecutive outputs are contiguous, and each sum starts from its bias and
// adds in[i]*w[o][i] with i ascending — Forward's operations, since in*w and
// w*in are the same float64. Outputs past the last multiple of eight, a
// last odd row, and layers narrower than eight outputs (the policy and value
// heads) run forwardRow, Forward's kernel. Sums land in outAll as
// pre-activations and one pass at the end turns them into activations.
func forwardLayer(w, wt, bias []float64, act Activation, nIn, nOut int, inAll, outAll []float64, rows int) {
	r := 0
	if nOut >= 8 && rows >= 2 {
		for o := 0; o < nOut; o++ {
			for i, v := range w[o*nIn : (o+1)*nIn] {
				wt[i*nOut+o] = v
			}
		}
		for ; r+2 <= rows; r += 2 {
			in := inAll[r*nIn : (r+2)*nIn]
			out0, out1 := outAll[r*nOut:(r+1)*nOut], outAll[(r+1)*nOut:(r+2)*nOut]
			copy(out0, bias)
			copy(out1, bias)
			o := 0
			for ; o+8 <= nOut; o += 8 {
				maddPair(out0[o:], out1[o:], in, 1, nIn, wt[o:], nOut, nIn)
			}
			if o < nOut {
				forwardRow(w[o*nIn:], bias[o:], in[:nIn], out0[o:])
				forwardRow(w[o*nIn:], bias[o:], in[nIn:], out1[o:])
			}
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
// any unknown activation) leaves z as it is. Tanh starts tanhPairs at each
// element inside the kernel's range, 0 < |x| < 0.625; the kernel stops at
// the first pair it cannot take, and that element, like every one outside
// the range, goes through math.Tanh. Both paths give math.Tanh's bits, so
// the range test only spares a run of Exp-branch inputs a kernel call per
// element.
func activate(z []float64, act Activation) {
	switch act {
	case Tanh:
		for k := 0; k < len(z); k++ {
			if v := z[k]; v != 0 && math.Abs(v) < 0.625 {
				k += tanhPairs(z[k:])
				if k == len(z) {
					break
				}
			}
			z[k] = math.Tanh(z[k])
		}
	case ReLU:
		for k, v := range z {
			if v < 0 {
				z[k] = 0
			}
		}
	}
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
	if len(cache.ones) < rows {
		cache.ones = make([]float64, rows)
		for k := range cache.ones {
			cache.ones[k] = 1
		}
	}

	nOut := m.Sizes[layers]
	delta := cache.dCur[:rows*nOut]
	scaleByDeriv(delta, dOut, cache.as[layers], m.Acts[layers-1])
	for l := layers - 1; l >= 0; l-- {
		nIn, nOut := m.Sizes[l], m.Sizes[l+1]
		in := cache.as[l]
		gradBias(g.B[l], cache.ones[:rows], delta, nOut)
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

// gradBias adds every row's delta to the bias gradients, rows ascending,
// as maddRow against ones (rows of 1): 1*d is d exactly, so each chain adds
// what the per-sample code adds, and four chains stay in registers.
func gradBias(gb, ones, delta []float64, nOut int) {
	maddRow(gb, ones, 1, delta, nOut)
}

// gradWeights adds delta[r][o]*in[r][i] to every weight gradient, rows
// ascending: output o's gradient row advances over column o of delta and
// the rows of in. Pairs of outputs run through maddPair against blocks of
// eight input columns; columns past the last multiple of eight and a last
// odd output run maddRow.
func gradWeights(gw, delta, in []float64, nIn, nOut, rows int) {
	o := 0
	for ; o+2 <= nOut; o += 2 {
		g0, g1 := gw[o*nIn:(o+1)*nIn], gw[(o+1)*nIn:(o+2)*nIn]
		i := 0
		for ; i+8 <= nIn; i += 8 {
			maddPair(g0[i:], g1[i:], delta[o:], nOut, 1, in[i:], nIn, rows)
		}
		if i < nIn {
			maddRow(g0[i:], delta[o:], nOut, in[i:], nIn)
			maddRow(g1[i:], delta[o+1:], nOut, in[i:], nIn)
		}
	}
	if o < nOut {
		maddRow(gw[o*nIn:(o+1)*nIn], delta[o:], nOut, in, nIn)
	}
}

// propagateDelta computes prev[r][i] = sum over o of delta[r][o]*w[o][i],
// each sum starting from +0 and adding with o ascending: row r of prev
// advances over row r of delta and the rows of w. Pairs of rows run
// through maddPair against blocks of eight columns; columns past the last
// multiple of eight and a last odd row run maddRow.
func propagateDelta(prev, delta, w []float64, nIn, nOut, rows int) {
	clear(prev)
	r := 0
	for ; r+2 <= rows; r += 2 {
		p0, p1 := prev[r*nIn:(r+1)*nIn], prev[(r+1)*nIn:(r+2)*nIn]
		d := delta[r*nOut : (r+2)*nOut]
		i := 0
		for ; i+8 <= nIn; i += 8 {
			maddPair(p0[i:], p1[i:], d, 1, nOut, w[i:], nIn, nOut)
		}
		if i < nIn {
			maddRow(p0[i:], d[:nOut], 1, w[i:], nIn)
			maddRow(p1[i:], d[nOut:], 1, w[i:], nIn)
		}
	}
	if r < rows {
		maddRow(prev[r*nIn:(r+1)*nIn], delta[r*nOut:(r+1)*nOut], 1, w, nIn)
	}
}

// maddPair runs madd2x8 after checking every index it reaches: eight
// values of a0 and of a1, x[(n-1)*xs+xp] and y[(n-1)*ys+7]. It panics
// otherwise, so the kernel never reads or writes outside a slice. Both
// strides are at least one.
func maddPair(a0, a1, x []float64, xs, xp int, y []float64, ys, n int) {
	if len(a0) < 8 || len(a1) < 8 || n < 0 || xs < 1 || ys < 1 ||
		n > 0 && (!within(n, xs, xp, len(x)) || !within(n, ys, 7, len(y))) {
		panic(fmt.Sprintf("nn: maddPair out of range: len(a0)=%d len(a1)=%d, x[%d] of %d (xs=%d xp=%d), y[%d] of %d (ys=%d), n=%d",
			len(a0), len(a1), (n-1)*xs+xp, len(x), xs, xp, (n-1)*ys+7, len(y), ys, n))
	}
	madd2x8(a0, a1, x, xs, xp, y, ys, n)
}

// within reports whether index (n-1)*stride+last, for n >= 1 and
// stride >= 1, lies in [0, length), with no product that can overflow.
func within(n, stride, last, length int) bool {
	hi, lo := bits.Mul64(uint64(n-1), uint64(stride))
	return hi == 0 && last >= 0 && lo < uint64(length) && uint64(last) < uint64(length)-lo
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

// madd4 is maddRow's four-accumulator block, and four of them make
// madd_generic.go's madd2x8. It is a leaf kept out of line on purpose:
// inlined into its caller's loop nest the register allocator spills the
// loop counter or the accumulators, and the store-to-load round trip costs
// more than the blocking wins (0.48 vs 0.33 ns per multiply-add). Four
// chains, not eight: with eight the compiler spills two accumulators and
// the block runs slower (0.35 vs 0.33 ns).
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
