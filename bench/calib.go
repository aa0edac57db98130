package main

import "time"

// The end-to-end timings are reported at reference speed. The reference box
// is a 2-vCPU microVM on a shared host, and the speed of its cores is not a
// property of the program. The clock of a core flips between two plateaus a
// quarter apart for seconds at a time: a fixed arithmetic loop read 3.1 or
// 3.9 ms and the training epoch beside it 0.317 or 0.403 s, the same ratio
// to within a hundredth. And in busy spells a neighbour on the core's other
// hyper-thread takes issue slots from code that keeps the core full: epochs
// read between 0.46 and 0.82 s while a loop that waits on its own results
// never moved, and a loop that issues two loads a cycle slowed with them.
//
// So the benchmark reads the machine's speed next to everything it times:
// calibrate() runs a fixed kernel of this file's own (it calls nothing of the
// program under test, so no change to the program moves it), and a timing is
// scaled by refCal over the mean of the readings taken just before and just
// after it. The kernel is half a dependent chain of integer and
// floating-point operations over 256 KiB, which follows the clock, and half
// four independent running sums over 32 KiB, which fill the core and follow
// the hyper-thread sibling as well. Over pseudo-runs of 12 epochs the per-run
// median epoch spread (inter-quartile range over median) by 0.044 raw and
// 0.015 scaled in a quiet spell that crossed clock plateaus, and by 0.22 raw
// and 0.07 scaled in the busiest spell seen.
//
// A reading is four times the fastest of four sub-passes: what else runs on
// the CPU between two timed stretches (the daemon's garbage collector, the
// kernel's deferred work) only ever adds to a sub-pass.

// refCal is what calibrate() reads on the reference box on its usual, slower
// clock plateau with a quiet sibling. Scaled timings are wall times of that
// state.
const refCal = 0.0064

var (
	calBuf  = make([]float64, 1<<15) // 256 KiB, inside L2; its first 32 KiB stay in L1
	calSink float64
)

func init() {
	for i := range calBuf {
		calBuf[i] = 1
	}
}

// calSubPass is a quarter of the calibration kernel.
func calSubPass() float64 {
	s := 0.0
	x := uint64(88172645463325252)
	buf := calBuf
	for r := 0; r < 12; r++ {
		for i := range buf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			s += buf[i]*1.0000001 + float64(x&7)
		}
	}
	hot := buf[:1<<12]
	for r := 0; r < 640; r++ {
		var a, b, c, d float64
		for i := 0; i+3 < len(hot); i += 4 {
			a += hot[i]
			b += hot[i+1]
			c += hot[i+2]
			d += hot[i+3]
		}
		s += a + b + c + d
	}
	return s
}

// calibrate reads the machine's speed: the seconds the calibration kernel
// takes now, on the calling goroutine's CPU.
func calibrate() float64 {
	best := 0.0
	for i := 0; i < 4; i++ {
		t0 := time.Now()
		calSink += calSubPass()
		if secs := time.Since(t0).Seconds(); i == 0 || secs < best {
			best = secs
		}
	}
	return 4 * best
}

// atRefSpeed scales a duration measured between two calibration readings to
// the reference speed.
func atRefSpeed(secs, calBefore, calAfter float64) float64 {
	return secs * refCal / ((calBefore + calAfter) / 2)
}
