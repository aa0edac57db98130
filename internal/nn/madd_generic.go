//go:build !amd64

package nn

// madd2x8 adds, for j = 0 … n-1 ascending and k = 0 … 7,
//
//	a0[k] += x[j*xs]    * y[j*ys+k]
//	a1[k] += x[j*xs+xp] * y[j*ys+k]
//
// the contract of madd_amd64.s, as four madd4 blocks. It adds no arithmetic
// of its own, so a port whose compiler fuses multiply-add fuses it as it
// fuses the per-sample code. Call it only through maddPair.
func madd2x8(a0, a1, x []float64, xs, xp int, y []float64, ys, n int) {
	if n == 0 {
		return
	}
	span := (n-1)*xs + 1
	x0, x1 := x[:span], x[xp:xp+span]
	madd4(a0[0:4], x0, xs, y, ys)
	madd4(a0[4:8], x0, xs, y[4:], ys)
	madd4(a1[0:4], x1, xs, y, ys)
	madd4(a1[4:8], x1, xs, y[4:], ys)
}
