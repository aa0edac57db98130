package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"schedinspector/internal/sched"
	"schedinspector/internal/workload"
)

func TestProfileBasics(t *testing.T) {
	// 10-proc cluster, 4 free now; running jobs release 3 at t=100 and 3 at
	// t=200.
	running := []runningJob{
		{end: 100, estEnd: 100, procs: 3},
		{end: 200, estEnd: 200, procs: 3},
	}
	p := newProfile(0, 4, running)
	if got := p.earliestStart(4, 50); got != 0 {
		t.Errorf("4 procs now: start %v, want 0", got)
	}
	if got := p.earliestStart(6, 50); got != 100 {
		t.Errorf("6 procs: start %v, want 100", got)
	}
	if got := p.earliestStart(10, 50); got != 200 {
		t.Errorf("10 procs: start %v, want 200", got)
	}

	// Reserve 4 procs for [0, 150): a 6-proc job must now wait until 150.
	p.reserve(0, 4, 150)
	if got := p.earliestStart(6, 10); got != 150 {
		t.Errorf("after reservation: start %v, want 150", got)
	}
}

func TestProfileExpiredEstimates(t *testing.T) {
	// A running job past its estimate is planned as releasing now.
	running := []runningJob{{end: 500, estEnd: 50, procs: 5}}
	p := newProfile(100, 0, running)
	if got := p.earliestStart(5, 10); got != 100 {
		t.Errorf("expired estimate: start %v, want 100 (now)", got)
	}
}

func TestConservativeBackfillStartsSafeJobs(t *testing.T) {
	// Identical to the EASY test: the short narrow job must backfill.
	jobs := []workload.Job{
		{ID: 1, Submit: 0, Run: 100, Est: 100, Procs: 3},
		{ID: 2, Submit: 1, Run: 100, Est: 100, Procs: 4},
		{ID: 3, Submit: 2, Run: 5, Est: 5, Procs: 1},
	}
	res, err := Run(jobs, Config{MaxProcs: 4, Policy: sched.FCFS(), Backfill: true, Conservative: true})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int]float64{}
	for _, r := range res.Results {
		byID[r.ID] = r.Start
	}
	if byID[3] != 2 {
		t.Errorf("job 3 start %v, want 2 (backfilled)", byID[3])
	}
	if byID[2] != 100 {
		t.Errorf("job 2 start %v, want 100", byID[2])
	}
}

func TestConservativeStricterThanEASY(t *testing.T) {
	// Under EASY, a job may backfill if it does not delay the HEAD
	// reservation, even if it delays a lower-priority waiting job. Under
	// conservative backfilling every waiting job holds a reservation.
	//
	// Cluster 8. Job1 runs [0,100) on 6. Job2 (head, 8 procs) reserves
	// t=100. Job3 (5 procs, est 300) reserves t=200 (after job2). Job4
	// (2 procs, est 250): EASY lets it start at t=3 (fits 2 free, extra=2);
	// conservative must also check job3's reservation at t=200-500 — job4
	// running [3,253) on 2 procs leaves 6 at t=200 — job3 needs 5 ≤ 6, so it
	// still fits. Use a wider job4 (procs 4 > extra 2): EASY rejects it too.
	// Instead verify conservative never delays job3's planned start below.
	jobs := []workload.Job{
		{ID: 1, Submit: 0, Run: 100, Est: 100, Procs: 6},
		{ID: 2, Submit: 1, Run: 100, Est: 100, Procs: 8},
		{ID: 3, Submit: 2, Run: 300, Est: 300, Procs: 5},
		{ID: 4, Submit: 3, Run: 250, Est: 250, Procs: 2},
	}
	easy, err := Run(jobs, Config{MaxProcs: 8, Policy: sched.FCFS(), Backfill: true})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := Run(jobs, Config{MaxProcs: 8, Policy: sched.FCFS(), Backfill: true, Conservative: true})
	if err != nil {
		t.Fatal(err)
	}
	start := func(res Result, id int) float64 {
		for _, r := range res.Results {
			if r.ID == id {
				return r.Start
			}
		}
		t.Fatalf("job %d missing", id)
		return 0
	}
	// Both must not delay the head reservation.
	if start(easy, 2) != 100 || start(cons, 2) != 100 {
		t.Errorf("head delayed: easy %v cons %v", start(easy, 2), start(cons, 2))
	}
	// Job 3 starts when job 2 finishes under both (8-proc job blocks all).
	if start(cons, 3) != 200 {
		t.Errorf("conservative job 3 start %v, want 200", start(cons, 3))
	}
	// Job 4 would overlap the head reservation at t=100 ([3,253) needs 2 of
	// the 8 procs job 2 reserves), so neither variant may start it early.
	if start(easy, 4) != 200 || start(cons, 4) != 200 {
		t.Errorf("job 4 start easy=%v cons=%v, want 200/200", start(easy, 4), start(cons, 4))
	}
}

func TestConservativeInvariants(t *testing.T) {
	tr := workload.SDSCSP2Like(3000, 19)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4; i++ {
		jobs := tr.RandomWindow(rng, 200, 0, 0)
		runChecked(t, jobs, Config{
			MaxProcs: tr.MaxProcs, Policy: sched.SJF(), Backfill: true, Conservative: true,
		})
	}
	// with a random inspector on top
	insp := func(s *State) bool { return rng.Float64() < 0.25 }
	jobs := tr.RandomWindow(rng, 150, 0, 0)
	runChecked(t, jobs, Config{
		MaxProcs: tr.MaxProcs, Policy: sched.SJF(), Backfill: true, Conservative: true, Inspector: insp,
	})
}

// Conservative backfilling should never beat EASY on backfill count (it is
// strictly more constrained) but both must schedule everything.
func TestConservativeVsEASYBackfills(t *testing.T) {
	tr := workload.CTCSP2Like(3000, 23)
	rng := rand.New(rand.NewSource(5))
	var easySum, consSum int
	for i := 0; i < 5; i++ {
		jobs := tr.RandomWindow(rng, 200, 0, 0)
		e, err := Run(jobs, Config{MaxProcs: tr.MaxProcs, Policy: sched.FCFS(), Backfill: true})
		if err != nil {
			t.Fatal(err)
		}
		c, err := Run(jobs, Config{MaxProcs: tr.MaxProcs, Policy: sched.FCFS(), Backfill: true, Conservative: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(e.Results) != 200 || len(c.Results) != 200 {
			t.Fatal("jobs lost")
		}
		easySum += e.Backfills
		consSum += c.Backfills
	}
	t.Logf("backfills: EASY %d, conservative %d", easySum, consSum)
	if consSum == 0 && easySum > 10 {
		t.Error("conservative backfilling appears inert")
	}
}

func TestProfileInsertBreakOrdering(t *testing.T) {
	p := newProfile(10, 3, []runningJob{{end: 100, estEnd: 100, procs: 5}})
	p.insertBreak(50)
	p.insertBreak(50) // duplicate: no-op
	p.insertBreak(5)  // before now: clamped/no-op
	if !sort.Float64sAreSorted(p.times) {
		t.Errorf("times unsorted: %v", p.times)
	}
	for i := 1; i < len(p.times); i++ {
		if p.times[i] == p.times[i-1] {
			t.Errorf("duplicate breakpoint: %v", p.times)
		}
	}
	// free count at inserted break inherits its left neighbor
	i := sort.SearchFloat64s(p.times, 50)
	if p.free[i] != 3 {
		t.Errorf("free at inserted break = %d, want 3", p.free[i])
	}
	if math.IsNaN(p.earliestStart(8, 10)) {
		t.Error("NaN earliest start")
	}
}
