#include "textflag.h"

// func madd2x8(a0, a1, x []float64, xs, xp int, y []float64, ys, n int)
//
// X0-X3 hold a0[0:8] and X4-X7 a1[0:8], two lanes each. Per j, X8 and X9
// hold x[j*xs] and x[j*xs+xp] in both lanes; each pair y[j*ys+k : +2] is
// loaded once, copied, multiplied by each and added to its accumulator.
// SSE2 only (MULPD, ADDPD, no FMA), so there is nothing to detect at run
// time on any amd64 CPU.
TEXT ·madd2x8(SB), NOSPLIT, $0-128
	MOVQ a0_base+0(FP), AX
	MOVQ a1_base+24(FP), BX
	MOVQ x_base+48(FP), SI
	MOVQ xs+72(FP), R8
	MOVQ xp+80(FP), R9
	MOVQ y_base+88(FP), DI
	MOVQ ys+112(FP), R10
	MOVQ n+120(FP), CX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10

	MOVUPD 0(AX), X0
	MOVUPD 16(AX), X1
	MOVUPD 32(AX), X2
	MOVUPD 48(AX), X3
	MOVUPD 0(BX), X4
	MOVUPD 16(BX), X5
	MOVUPD 32(BX), X6
	MOVUPD 48(BX), X7
	TESTQ  CX, CX
	JZ     done

loop:
	MOVSD    (SI), X8
	UNPCKLPD X8, X8
	MOVSD    (SI)(R9*1), X9
	UNPCKLPD X9, X9

	MOVUPD 0(DI), X10
	MOVAPD X10, X11
	MULPD  X8, X10
	MULPD  X9, X11
	ADDPD  X10, X0
	ADDPD  X11, X4

	MOVUPD 16(DI), X12
	MOVAPD X12, X13
	MULPD  X8, X12
	MULPD  X9, X13
	ADDPD  X12, X1
	ADDPD  X13, X5

	MOVUPD 32(DI), X10
	MOVAPD X10, X11
	MULPD  X8, X10
	MULPD  X9, X11
	ADDPD  X10, X2
	ADDPD  X11, X6

	MOVUPD 48(DI), X12
	MOVAPD X12, X13
	MULPD  X8, X12
	MULPD  X9, X13
	ADDPD  X12, X3
	ADDPD  X13, X7

	ADDQ R8, SI
	ADDQ R10, DI
	DECQ CX
	JNZ  loop

done:
	MOVUPD X0, 0(AX)
	MOVUPD X1, 16(AX)
	MOVUPD X2, 32(AX)
	MOVUPD X3, 48(AX)
	MOVUPD X4, 0(BX)
	MOVUPD X5, 16(BX)
	MOVUPD X6, 32(BX)
	MOVUPD X7, 48(BX)
	RET
