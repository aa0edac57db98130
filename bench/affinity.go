package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The whole benchmark runs on one CPU: this process, its goroutines and the
// daemon it spawns (a child inherits the mask; the Go runtime of the daemon
// sizes GOMAXPROCS from it). The reference box has two vCPUs, and its kernel
// leaves two runnable threads on one of them for hundreds of milliseconds
// while the other idles: two goroutines spinning 100 ms each finished in
// 190 ms on six tries of eight and in 95 ms on two. Whether a parallel phase
// (rollout workers, two dist ranks, a client and the daemon) gets the second
// vCPU is therefore a coin thrown anew every run, worth up to a factor of
// two, and where client and daemon do land on different vCPUs every request
// pays two wake-ups through the hypervisor (0.083 ms a shallow inspect
// against 0.049 ms on one CPU). On one CPU the placement is always the same,
// and what is measured is the work the program does.

type cpuMask [16]uint64

func (m *cpuMask) call(trap uintptr, tid int) syscall.Errno {
	_, _, errno := syscall.RawSyscall(trap, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	return errno
}

// setAll gives every thread of this process the mask. Threads created later
// inherit the mask of the thread that creates them; the second pass catches
// one created during the first.
func (m *cpuMask) setAll() error {
	for pass := 0; pass < 2; pass++ {
		ents, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil {
				continue
			}
			// A thread may have exited since the listing (ESRCH).
			if errno := m.call(syscall.SYS_SCHED_SETAFFINITY, tid); errno != 0 && errno != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity(%d): %v", tid, errno)
			}
		}
	}
	return nil
}

// pinProcess pins every thread of this process to the highest-numbered CPU
// it may run on (CPU 0 takes most of the interrupts) and sets GOMAXPROCS to
// 1. The returned function undoes both.
func pinProcess() (undo func(), err error) {
	var allowed cpuMask
	if errno := allowed.call(syscall.SYS_SCHED_GETAFFINITY, 0); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %v", errno)
	}
	var one cpuMask
	for w := len(allowed) - 1; w >= 0; w-- {
		if allowed[w] != 0 {
			one[w] = 1 << (63 - bits.LeadingZeros64(allowed[w]))
			break
		}
	}
	if err := one.setAll(); err != nil {
		return nil, err
	}
	procs := runtime.GOMAXPROCS(1)
	return func() {
		runtime.GOMAXPROCS(procs)
		allowed.setAll()
	}, nil
}
