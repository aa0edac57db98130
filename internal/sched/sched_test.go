package sched

import (
	"math"
	"math/rand"
	"testing"

	"schedinspector/internal/workload"
)

func job(id int, submit, est float64, procs int) workload.Job {
	return workload.Job{ID: id, Submit: submit, Est: est, Run: est, Procs: procs}
}

// lowestOf returns the job the policy would schedule first.
func lowestOf(p Policy, now float64, jobs ...workload.Job) int {
	best := 0
	bestScore := p.Score(&jobs[0], now)
	for i := 1; i < len(jobs); i++ {
		if sc := p.Score(&jobs[i], now); sc < bestScore {
			best, bestScore = i, sc
		}
	}
	return jobs[best].ID
}

func TestPolicyOrdering(t *testing.T) {
	early := job(1, 0, 500, 8)  // earliest, long, wide
	late := job(2, 100, 50, 16) // latest, short, widest
	mid := job(3, 50, 200, 1)   // middle, medium, narrow

	cases := []struct {
		policy Policy
		want   int
	}{
		{FCFS(), 1}, // earliest submit
		{LCFS(), 2}, // latest submit
		{SJF(), 2},  // est 50
		{SQF(), 3},  // 1 proc
		{SAF(), 3},  // 200*1=200 < 50*16=800 < 500*8=4000
		{SRF(), 2},  // 50/16 ≈ 3.1 smallest
	}
	for _, c := range cases {
		if got := lowestOf(c.policy, 200, early, late, mid); got != c.want {
			t.Errorf("%s: picked job %d, want %d", c.policy.Name(), got, c.want)
		}
	}
}

func TestF1Score(t *testing.T) {
	p := F1()
	j := job(1, 1000, 3600, 10)
	want := math.Log10(3600)*10 + 870*math.Log10(1000)
	if got := p.Score(&j, 0); math.Abs(got-want) > 1e-9 {
		t.Errorf("F1 score = %v, want %v", got, want)
	}
	// F1 favors small/short jobs submitted earlier.
	small := job(2, 100, 60, 1)
	big := job(3, 100, 86400, 256)
	if lowestOf(p, 0, small, big) != 2 {
		t.Error("F1 should prefer the small short job")
	}
	// zero submit must not produce -Inf
	z := job(4, 0, 100, 1)
	if math.IsInf(p.Score(&z, 0), 0) {
		t.Error("F1 score infinite at submit=0")
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("Name = %s, want %s", p.Name(), name)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestForTrace(t *testing.T) {
	if p, err := ForTrace("SJF", nil); err != nil || p.Name() != "SJF" {
		t.Errorf("ForTrace(SJF) = %v, %v", p, err)
	}
	if p, err := ForTrace("Slurm", slurmTrace()); err != nil || p.Name() != "Slurm" {
		t.Errorf("ForTrace(Slurm) = %v, %v", p, err)
	}
	if _, err := ForTrace("bogus", slurmTrace()); err == nil {
		t.Error("unknown policy accepted")
	}
}

func slurmTrace() *workload.Trace {
	return &workload.Trace{
		Name: "t", MaxProcs: 64,
		Jobs: []workload.Job{
			{ID: 1, Submit: 0, Run: 1000, Est: 1200, Procs: 8, User: 1, Queue: 1},
			{ID: 2, Submit: 10, Run: 100, Est: 120, Procs: 2, User: 2, Queue: 2},
			{ID: 3, Submit: 20, Run: 5000, Est: 6000, Procs: 16, User: 1, Queue: 1},
		},
	}
}

func TestSlurmFactors(t *testing.T) {
	tr := slurmTrace()
	s := NewSlurm(tr)

	// Age factor: a job that waited 7 days has age factor 1, contributing
	// exactly WeightAge more than a job that just arrived.
	j := workload.Job{ID: 9, Submit: 0, Est: 120, Procs: 1, User: 2, Queue: 2}
	p0 := s.Priority(&j, 0)
	p7 := s.Priority(&j, 7*24*3600)
	if math.Abs((p7-p0)-s.WeightAge) > 1e-9 {
		t.Errorf("age contribution = %v, want %v", p7-p0, s.WeightAge)
	}
	// Age saturates at 7 days.
	p14 := s.Priority(&j, 14*24*3600)
	if math.Abs(p14-p7) > 1e-9 {
		t.Error("age factor should cap at 1")
	}

	// Fairshare: before any usage, factor is 2^0 = 1 for a user with share.
	// After the user consumes their entire share, it halves.
	heavy := workload.Job{ID: 10, Submit: 0, Est: 120, Procs: 1, User: 1, Queue: 1}
	before := s.Priority(&heavy, 0)
	// user 1's trace work: 1000*8 + 5000*16 = 88000 core-s of 88200 total
	s.usage[1] = s.userShare[1] * s.totalWork // exactly their share
	after := s.Priority(&heavy, 0)
	if math.Abs((before-after)-s.WeightFairshare*0.5) > 1e-6 {
		t.Errorf("fairshare drop = %v, want %v", before-after, s.WeightFairshare*0.5)
	}

	// Job attribute: shorter requested time gives higher priority.
	short := workload.Job{ID: 11, Submit: 0, Est: 60, Procs: 1, User: 2, Queue: 2}
	long := workload.Job{ID: 12, Submit: 0, Est: 6000, Procs: 1, User: 2, Queue: 2}
	if s.Priority(&short, 0) <= s.Priority(&long, 0) {
		t.Error("shorter request should have higher priority")
	}

	// Partition: queue 1 dominates usage, so its factor is 1 (normalized).
	q1 := workload.Job{ID: 13, Submit: 0, Est: 6000, Procs: 1, User: 3, Queue: 1}
	q2 := workload.Job{ID: 14, Submit: 0, Est: 6000, Procs: 1, User: 3, Queue: 2}
	if s.Priority(&q1, 0) <= s.Priority(&q2, 0) {
		t.Error("busier queue should carry higher partition factor")
	}
}

func TestSlurmScoreNegatesPriority(t *testing.T) {
	s := NewSlurm(slurmTrace())
	j := workload.Job{ID: 9, Submit: 0, Est: 120, Procs: 1, User: 2, Queue: 2}
	if s.Score(&j, 100) != -s.Priority(&j, 100) {
		t.Error("Score must be the negated priority")
	}
	if s.Name() != "Slurm" {
		t.Error("bad name")
	}
}

func TestSlurmObserveAndReset(t *testing.T) {
	s := NewSlurm(slurmTrace())
	j := workload.Job{ID: 9, Submit: 0, Est: 100, Procs: 4, User: 1, Queue: 1}
	base := s.Priority(&j, 0)
	s.ObserveStart(&j, 0)
	if s.usage[1] != 400 {
		t.Errorf("usage after start = %v, want 400", s.usage[1])
	}
	if s.Priority(&j, 0) >= base {
		t.Error("priority should drop after consuming usage")
	}
	s.Reset()
	if len(s.usage) != 0 {
		t.Error("Reset did not clear usage")
	}
	if got := s.Priority(&j, 0); math.Abs(got-base) > 1e-12 {
		t.Errorf("priority after Reset = %v, want %v", got, base)
	}
}

func TestSlurmUnknownUserQueue(t *testing.T) {
	s := NewSlurm(slurmTrace())
	// Users/queues absent from the trace have zero share; priority must be
	// finite and well-defined.
	j := workload.Job{ID: 9, Submit: 0, Est: 100, Procs: 1, User: 999, Queue: 999}
	p := s.Priority(&j, 50)
	if math.IsNaN(p) || math.IsInf(p, 0) {
		t.Errorf("priority for unknown user = %v", p)
	}
}

// TestTimeInvariantMarker holds every ByName policy to the contract the
// simulator relies on when it scores a job once at arrival: the policy
// carries the marker and its score is the same bits at any two times. A
// policy that reads now behind the marker fails here, not in an experiment.
func TestTimeInvariantMarker(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	randTime := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return -rng.Float64() * 1e6
		case 2:
			return math.Inf(1)
		}
		return rng.Float64() * 1e8
	}
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.(TimeInvariant); !ok {
			t.Errorf("%s does not implement TimeInvariant", name)
		}
		for i := 0; i < 2000; i++ {
			j := workload.Job{
				ID: i + 1, User: rng.Intn(50), Queue: rng.Intn(4),
				Submit: math.Floor(rng.Float64() * 1e7 * float64(rng.Intn(2))), // half at 0: F1 clamps there
				Est:    rng.Float64() * math.Pow(10, float64(rng.Intn(6))),     // spans <1 (F1's other clamp) to 1e5
				Procs:  1 + rng.Intn(512),
			}
			j.Run = j.Est * rng.Float64()
			t1, t2 := randTime(), randTime()
			s1, s2 := p.Score(&j, t1), p.Score(&j, t2)
			if math.Float64bits(s1) != math.Float64bits(s2) {
				t.Fatalf("%s: Score(%+v) = %v at t=%v but %v at t=%v", name, j, s1, t1, s2, t2)
			}
		}
	}

	// Slurm must stay unmarked, and the bits check above would catch it if it
	// were not: its age factor moves with now.
	slurm := NewSlurm(slurmTrace())
	if _, ok := Policy(slurm).(TimeInvariant); ok {
		t.Error("Slurm implements TimeInvariant; its age factor reads now")
	}
	j := workload.Job{ID: 9, Submit: 0, Est: 120, Procs: 1, User: 2, Queue: 2}
	if slurm.Score(&j, 0) == slurm.Score(&j, 3600) {
		t.Error("Slurm score did not move with now; the negative control is vacuous")
	}
}
