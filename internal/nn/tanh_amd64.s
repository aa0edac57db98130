#include "textflag.h"

// Constants of math.tanh's rational branch ($GOROOT/src/math/tanh.go),
// as bits: the sign mask's complement, the branch bound 0.625, tanhP[0:3]
// and tanhQ[0:3].
DATA tanhc<>+0(SB)/8, $0x7fffffffffffffff
DATA tanhc<>+8(SB)/8, $0x3fe4000000000000
DATA tanhc<>+16(SB)/8, $0xbfeedc5baafd6f4b
DATA tanhc<>+24(SB)/8, $0xc058d26a0e26682d
DATA tanhc<>+32(SB)/8, $0xc0993ac030580563
DATA tanhc<>+40(SB)/8, $0x405c33f28a581b86
DATA tanhc<>+48(SB)/8, $0x40a176fa0e5535fa
DATA tanhc<>+56(SB)/8, $0x40b2ec102442040c
GLOBL tanhc<>(SB), RODATA|NOPTR, $64

// func tanhPairs(z []float64) int
//
// X0 holds the mask, X1 the bound, X2 zero, X3-X5 P0-P2 and X6-X8 Q0-Q2,
// each in both lanes. Per pair, X9 is x, X10 s = x*x, X11 the numerator,
// X12 the denominator and X13 the result; X11 and X12 first hold the two
// range masks. SSE2 only (MULPD, ADDPD, DIVPD, CMPPD, no FMA), so there is
// nothing to detect at run time on any amd64 CPU.
TEXT ·tanhPairs(SB), NOSPLIT, $0-32
	MOVQ z_base+0(FP), SI
	MOVQ z_len+8(FP), CX
	XORQ AX, AX

	MOVSD    tanhc<>+0(SB), X0
	UNPCKLPD X0, X0
	MOVSD    tanhc<>+8(SB), X1
	UNPCKLPD X1, X1
	XORPD    X2, X2
	MOVSD    tanhc<>+16(SB), X3
	UNPCKLPD X3, X3
	MOVSD    tanhc<>+24(SB), X4
	UNPCKLPD X4, X4
	MOVSD    tanhc<>+32(SB), X5
	UNPCKLPD X5, X5
	MOVSD    tanhc<>+40(SB), X6
	UNPCKLPD X6, X6
	MOVSD    tanhc<>+48(SB), X7
	UNPCKLPD X7, X7
	MOVSD    tanhc<>+56(SB), X8
	UNPCKLPD X8, X8

loop:
	LEAQ 2(AX), DX
	CMPQ DX, CX
	JGT  done

	// Both lanes must satisfy 0 < |x| < 0.625; a NaN fails both compares.
	MOVUPD   (SI)(AX*8), X9
	MOVAPD   X9, X11
	ANDPD    X0, X11
	MOVAPD   X2, X12
	CMPPD    X11, X12, $1 // X12 = 0 < |x|
	CMPPD    X1, X11, $1  // X11 = |x| < 0.625
	ANDPD    X12, X11
	MOVMSKPD X11, DX
	CMPQ     DX, $3
	JNE      done

	// s := x * x
	MOVAPD X9, X10
	MULPD  X9, X10

	// (tanhP[0]*s+tanhP[1])*s + tanhP[2]
	MOVAPD X3, X11
	MULPD  X10, X11
	ADDPD  X4, X11
	MULPD  X10, X11
	ADDPD  X5, X11

	// ((s+tanhQ[0])*s+tanhQ[1])*s + tanhQ[2]
	MOVAPD X10, X12
	ADDPD  X6, X12
	MULPD  X10, X12
	ADDPD  X7, X12
	MULPD  X10, X12
	ADDPD  X8, X12

	// x + x*s*num/den, left to right
	MOVAPD X9, X13
	MULPD  X10, X13
	MULPD  X11, X13
	DIVPD  X12, X13
	ADDPD  X9, X13

	MOVUPD X13, (SI)(AX*8)
	ADDQ   $2, AX
	JMP    loop

done:
	MOVQ AX, ret+24(FP)
	RET
