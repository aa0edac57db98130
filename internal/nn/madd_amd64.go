package nn

// madd2x8 adds, for j = 0 … n-1 ascending and k = 0 … 7,
//
//	a0[k] += x[j*xs]    * y[j*ys+k]
//	a1[k] += x[j*xs+xp] * y[j*ys+k]
//
// sixteen independent chains, each advanced in j order. It reads and writes
// through the slices' base pointers without bounds checks; call it only
// through maddPair, which checks every index it reaches.
//
// madd_amd64.s holds the sixteen sums in eight XMM registers and advances
// them with SSE2 MULPD then ADDPD: every lane is rounded after the multiply
// and again after the add, exactly as the scalar MULSD/ADDSD of Go code is,
// so a lane's bits are those of `acc += a*b` in Go.
//
//go:noescape
func madd2x8(a0, a1, x []float64, xs, xp int, y []float64, ys, n int)
