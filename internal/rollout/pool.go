package rollout

import (
	"runtime"

	"schedinspector/internal/sched"
)

// Worker-count and policy-instance helpers for the callers that size a
// driver run: how many workers to start, and whether the base policy can
// be handed to concurrent episodes.

// ResolveWorkers maps a configured worker count to an effective one: zero
// or negative means "one per CPU".
func ResolveWorkers(w int) int {
	if w <= 0 {
		return runtime.NumCPU()
	}
	return w
}

// PolicyClones returns n scheduling-policy instances with the original at
// index 0. Stateless policies are shared; stateful ones (sched.Cloner) are
// cloned so concurrent simulations never race on their accounting. The
// second result is false when the policy is stateful but has no Cloner —
// the caller must then fall back to sequential execution on the shared
// instance.
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
		out[i] = c.ClonePolicy()
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
	return false
}
