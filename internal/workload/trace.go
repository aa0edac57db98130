package workload

import (
	"fmt"
	"math/rand"
	"sort"
)

// Trace is an ordered sequence of jobs together with the size of the cluster
// that produced (or should replay) it.
type Trace struct {
	Name     string
	MaxProcs int   // total processors in the cluster
	Jobs     []Job // sorted by Submit, ties by ID
}

// Len returns the number of jobs in the trace.
func (t *Trace) Len() int { return len(t.Jobs) }

// SortBySubmit orders jobs by submission time, breaking ties by job ID.
// Simulation and window sampling require this ordering.
func (t *Trace) SortBySubmit() {
	sort.SliceStable(t.Jobs, func(i, k int) bool {
		a, b := t.Jobs[i], t.Jobs[k]
		if a.Submit != b.Submit {
			return a.Submit < b.Submit
		}
		return a.ID < b.ID
	})
}

// Validate checks every job against the cluster size and the submit ordering.
func (t *Trace) Validate() error {
	if t.MaxProcs <= 0 {
		return fmt.Errorf("trace %q: nonpositive cluster size %d", t.Name, t.MaxProcs)
	}
	prev := -1.0
	for i, j := range t.Jobs {
		if err := j.Validate(t.MaxProcs); err != nil {
			return fmt.Errorf("trace %q: %w", t.Name, err)
		}
		if j.Submit < prev {
			return fmt.Errorf("trace %q: job index %d out of submit order (%.1f < %.1f)", t.Name, i, j.Submit, prev)
		}
		prev = j.Submit
	}
	return nil
}

// Window returns n consecutive jobs starting at index start, re-based so the
// first job submits at time 0. Job IDs are preserved. It panics if the range
// is out of bounds; use CanWindow to check.
func (t *Trace) Window(start, n int) []Job {
	return t.WindowInto(nil, start, n)
}

// WindowInto is Window written into dst, which is reallocated only when its
// capacity is below n; it returns the filled dst[:n]. Drivers that replay
// many windows one after another recycle a single buffer through it.
func (t *Trace) WindowInto(dst []Job, start, n int) []Job {
	if start < 0 || n <= 0 || start+n > len(t.Jobs) {
		panic(fmt.Sprintf("workload: window [%d,%d) out of range for %d jobs", start, start+n, len(t.Jobs)))
	}
	if cap(dst) < n {
		dst = make([]Job, n)
	}
	dst = dst[:n]
	base := t.Jobs[start].Submit
	copy(dst, t.Jobs[start:start+n])
	for i := range dst {
		dst[i].Submit -= base
	}
	return dst
}

// CanWindow reports whether Window(start, n) is in range.
func (t *Trace) CanWindow(start, n int) bool {
	return start >= 0 && n > 0 && start+n <= len(t.Jobs)
}

// RandomWindow samples a window of n consecutive jobs uniformly from
// [lo, hi) start indices using rng. hi <= 0 means "to the end of the trace".
// It is the sampling primitive behind both training trajectories and the
// 50-sequence test evaluations in the paper (§4.4).
func (t *Trace) RandomWindow(rng *rand.Rand, n, lo, hi int) []Job {
	if hi <= 0 || hi > len(t.Jobs)-n+1 {
		hi = len(t.Jobs) - n + 1
	}
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		panic(fmt.Sprintf("workload: no window of %d jobs in [%d,%d) of %d jobs", n, lo, hi, len(t.Jobs)))
	}
	start := lo + rng.Intn(hi-lo)
	return t.Window(start, n)
}

// Split returns the index that separates the first frac of jobs (training
// data) from the rest (testing data), following the paper's 20%/80% split.
func (t *Trace) Split(frac float64) int {
	n := int(float64(len(t.Jobs)) * frac)
	if n < 0 {
		n = 0
	}
	if n > len(t.Jobs) {
		n = len(t.Jobs)
	}
	return n
}

// Clone deep-copies the trace.
func (t *Trace) Clone() *Trace {
	jobs := make([]Job, len(t.Jobs))
	copy(jobs, t.Jobs)
	return &Trace{Name: t.Name, MaxProcs: t.MaxProcs, Jobs: jobs}
}
