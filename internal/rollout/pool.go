package rollout

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"schedinspector/internal/sched"
)

// The worker pool fans independent simulation work out over goroutines.
// Work is handed out through an atomic index counter; results are written
// into per-index slots, so reduction order — and with it every statistic,
// PPO batch and serialized model — is independent of which worker ran which
// item. The rollout driver owns it so the trainer and the evaluator fan out
// through the same machinery.

// ResolveWorkers maps a configured worker count to an effective one: zero
// or negative means "one per CPU".
func ResolveWorkers(w int) int {
	if w <= 0 {
		return runtime.NumCPU()
	}
	return w
}

// RunIndexed executes fn(worker, i) for every i in [0, n) across at most
// workers goroutines. worker identifies the goroutine in [0, workers), so
// callers can hand each one private scratch state (a cloned policy
// snapshot). It returns the summed busy time across workers and the
// wall-clock elapsed, the inputs of the worker-utilization gauge.
func RunIndexed(workers, n int, fn func(worker, i int)) (busy, wall time.Duration) {
	if n <= 0 {
		return 0, 0
	}
	if workers > n {
		workers = n
	}
	start := time.Now()
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		wall = time.Since(start)
		return wall, wall
	}
	var next atomic.Int64
	busyNs := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t0 := time.Now()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				fn(w, i)
			}
			busyNs[w] = time.Since(t0).Nanoseconds()
		}(w)
	}
	wg.Wait()
	wall = time.Since(start)
	for _, ns := range busyNs {
		busy += time.Duration(ns)
	}
	return busy, wall
}

// PolicyClones returns n scheduling-policy instances with the original at
// index 0. Stateless policies are shared; stateful ones (sched.Cloner) are
// cloned so concurrent simulations never race on their accounting. The
// second result is false when the policy is stateful but cannot be cloned
// in its current mode — the caller must then fall back to sequential
// execution on the shared instance.
func PolicyClones(p sched.Policy, n int) ([]sched.Policy, bool) {
	out := make([]sched.Policy, n)
	out[0] = p
	if n == 1 {
		return out, true
	}
	c, cloneable := p.(sched.Cloner)
	if !cloneable {
		if PolicyStateful(p) {
			return out[:1], false
		}
		for i := 1; i < n; i++ {
			out[i] = p
		}
		return out, true
	}
	for i := 1; i < n; i++ {
		cp := c.ClonePolicy()
		if cp == nil {
			return out[:1], false
		}
		out[i] = cp
	}
	return out, true
}

// PolicyStateful reports whether p carries per-run mutable state, judged by
// the stateful-policy interfaces the simulator drives.
func PolicyStateful(p sched.Policy) bool {
	if _, ok := p.(sched.Resetter); ok {
		return true
	}
	if _, ok := p.(sched.UsageObserver); ok {
		return true
	}
	if _, ok := p.(sched.Selector); ok {
		return true
	}
	return false
}
