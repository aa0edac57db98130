package sched_test

import (
	"math/rand"
	"testing"

	"schedinspector/internal/rlsched"
	"schedinspector/internal/sched"
)

// TestLearnedPolicyNotTimeInvariant lives in the external test package
// because rlsched imports sched. The kernel network's Score reads now (the
// job's wait is a feature), so the simulator must keep re-scoring it.
func TestLearnedPolicyNotTimeInvariant(t *testing.T) {
	var p sched.Policy = rlsched.New(rand.New(rand.NewSource(1)), rlsched.Norm{}, []int{4})
	if _, ok := p.(sched.TimeInvariant); ok {
		t.Error("*rlsched.Policy implements sched.TimeInvariant")
	}
}
