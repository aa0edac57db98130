package rollout

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"schedinspector/internal/explain"
	"schedinspector/internal/obs"
	"schedinspector/internal/sched"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

var testTrace = workload.SDSCSP2Like(600, 5)

// testEpisodes builds n episodes over windows of the test trace (distinct
// for the first 13): even slots interactive, odd slots the straight-through
// base run.
func testEpisodes(n int) []Episode {
	eps := make([]Episode, n)
	for i := range eps {
		eps[i] = Episode{
			Jobs: testTrace.Window(40*i%520, 48),
			Cfg: sim.Config{
				MaxProcs: testTrace.MaxProcs, Policy: sched.SJF(), Backfill: true, NoValidate: true,
			},
			Interactive: i%2 == 0,
		}
	}
	return eps
}

// slotDecide hands out Decides whose verdicts are a pure function of (slot,
// the slot's decision count, the state), the property the engine's
// determinism rests on. It records every wave it was handed and by which
// worker; the lock is the test's own bookkeeping, not part of the contract.
type slotDecide struct {
	mu    sync.Mutex
	seq   map[int]int
	owner map[int]int // slot -> the worker that decided it
	waves [][]int
	bad   string // first contract violation seen
}

func (d *slotDecide) worker(w int) Decide {
	return func(pending []Pending, rejects []bool) {
		d.mu.Lock()
		defer d.mu.Unlock()
		if d.seq == nil {
			d.seq, d.owner = make(map[int]int), make(map[int]int)
		}
		wave := make([]int, len(pending))
		for i, p := range pending {
			wave[i] = p.Slot
			if i > 0 && p.Slot <= wave[i-1] && d.bad == "" {
				d.bad = fmt.Sprintf("wave %v is not in ascending slot order", wave[:i+1])
			}
			if o, seen := d.owner[p.Slot]; seen && o != w && d.bad == "" {
				d.bad = fmt.Sprintf("slot %d was handed to workers %d and %d", p.Slot, o, w)
			}
			d.owner[p.Slot] = w
			n := d.seq[p.Slot]
			d.seq[p.Slot] = n + 1
			rejects[i] = (n+p.Slot)%3 == 0 && p.State.Rejections < 2
		}
		d.waves = append(d.waves, wave)
	}
}

// TestRunSlotOrderAndWorkerEquivalence: results come back in slot order and
// are identical whether episodes run one at a time or four at once.
func TestRunSlotOrderAndWorkerEquivalence(t *testing.T) {
	eps := testEpisodes(6)
	runAt := func(workers int) ([]sim.Result, *slotDecide) {
		d := &slotDecide{}
		res, rep, err := Run(eps, Config{Workers: workers, NewDecide: d.worker})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(eps) || len(rep.EpisodeSeconds) != len(eps) {
			t.Fatalf("workers=%d: %d results, %d episode timings for %d episodes",
				workers, len(res), len(rep.EpisodeSeconds), len(eps))
		}
		if d.bad != "" {
			t.Fatalf("workers=%d: %s", workers, d.bad)
		}
		return res, d
	}
	seq, seqD := runAt(1)
	par, parD := runAt(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("results differ between Workers 1 and 4")
	}
	for i, r := range seq {
		// Windows overlap but start 40 jobs apart, so the set of job IDs
		// identifies the episode a result belongs to.
		ids := make(map[int]bool)
		for _, jr := range r.Results {
			ids[jr.ID] = true
		}
		for _, j := range eps[i].Jobs {
			if !ids[j.ID] {
				t.Fatalf("result %d is missing job %d of episode %d", i, j.ID, i)
			}
		}
		if len(r.Results) != len(eps[i].Jobs) {
			t.Fatalf("result %d holds %d jobs, episode has %d", i, len(r.Results), len(eps[i].Jobs))
		}
		if (r.Inspections > 0) != eps[i].Interactive {
			t.Fatalf("slot %d: %d inspections, interactive=%v", i, r.Inspections, eps[i].Interactive)
		}
	}
	for _, wave := range seqD.waves {
		if len(wave) != 1 {
			t.Fatalf("Workers=1 delivered a wave of %d slots", len(wave))
		}
	}
	if !reflect.DeepEqual(seqD.seq, parD.seq) {
		t.Fatalf("per-slot decision counts differ: %v vs %v", seqD.seq, parD.seq)
	}
	// Which of four racing workers claims which episode is up to the
	// scheduler; one worker with the full window must hold all three
	// interactive episodes in its first wave.
	d := &slotDecide{}
	if _, _, err := run(eps, Config{NewDecide: d.worker}, 1, liveWindow); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 2, 4}; !reflect.DeepEqual(d.waves[0], want) {
		t.Fatalf("one worker's first wave is %v, want %v", d.waves[0], want)
	}
}

// TestSlotBaseShiftsSlotsAndSpanIDs: a shard rolled out with SlotBase = lo
// reports the global slot to Decide and derives the same episode span IDs
// the whole batch would have.
func TestSlotBaseShiftsSlotsAndSpanIDs(t *testing.T) {
	const base, root = 7, obs.SpanID(1234)
	for _, workers := range []int{1, 4} {
		eps := testEpisodes(4)
		d := &slotDecide{}
		ring := obs.NewTraceRing(1<<12, 0)
		if _, _, err := Run(eps, Config{Workers: workers, NewDecide: d.worker, Ring: ring, SpanRoot: root, SlotBase: base}); err != nil {
			t.Fatal(err)
		}
		for slot := range d.seq {
			if i := slot - base; i < 0 || i >= len(eps) || !eps[i].Interactive {
				t.Fatalf("workers=%d: Decide saw slot %d; interactive slots are %d and %d", workers, slot, base, base+2)
			}
		}
		if len(d.seq) != 2 {
			t.Fatalf("workers=%d: Decide saw slots %v, want 2 of them", workers, d.seq)
		}
		tr, err := explain.ReadFTrace(bytes.NewReader(ring.Snapshot()))
		if err != nil {
			t.Fatal(err)
		}
		episodes := make(map[obs.SpanID]int) // episode span ID -> its slot attr
		decisions := make(map[obs.SpanID]int)
		for _, sp := range tr.Spans {
			switch sp.Name {
			case "episode":
				if sp.Parent != root {
					t.Fatalf("episode span parent %d, want the root %d", sp.Parent, root)
				}
				episodes[sp.ID] = int(sp.Attrs[0].Num)
			case "decision":
				decisions[sp.Parent]++
			}
		}
		if len(episodes) != len(eps) {
			t.Fatalf("workers=%d: %d episode spans for %d episodes", workers, len(episodes), len(eps))
		}
		for i := range eps {
			id := obs.DeriveSpanID(uint64(root), uint64(base+i))
			if slot, ok := episodes[id]; !ok || slot != base+i {
				t.Fatalf("workers=%d: episode %d has no span with ID derived from slot %d (slot attr %d)", workers, i, base+i, slot)
			}
			if got, want := decisions[id], d.seq[base+i]; got != want {
				t.Fatalf("workers=%d: slot %d has %d decision spans under its episode span, Decide answered %d", workers, base+i, got, want)
			}
		}
	}
}

// TestRunDoesNotMutateCallerEpisodes: span plumbing is attached to a copy.
func TestRunDoesNotMutateCallerEpisodes(t *testing.T) {
	eps := testEpisodes(3)
	d := &slotDecide{}
	ring := obs.NewTraceRing(1<<12, 0)
	if _, _, err := Run(eps, Config{Workers: 2, NewDecide: d.worker, Ring: ring, SpanRoot: 9}); err != nil {
		t.Fatal(err)
	}
	if ring.Total() == 0 {
		t.Fatal("ring attached but nothing recorded")
	}
	for i := range eps {
		if eps[i].Cfg.Ring != nil || eps[i].Cfg.SpanParent != 0 {
			t.Fatalf("caller's episode %d now carries ring %p / span parent %d", i, eps[i].Cfg.Ring, eps[i].Cfg.SpanParent)
		}
	}
}

// TestRunRejectsBadEpisodes: decisions come from Decide and nowhere else.
func TestRunRejectsBadEpisodes(t *testing.T) {
	eps := testEpisodes(2)
	eps[1].Cfg.Inspector = func(*sim.State) bool { return false }
	if _, _, err := Run(eps, Config{NewDecide: (&slotDecide{}).worker}); err == nil || !strings.Contains(err.Error(), "episode 1 sets Cfg.Inspector") {
		t.Fatalf("episode with its own Inspector: err %v", err)
	}
	if _, _, err := Run(testEpisodes(2), Config{}); err == nil || !strings.Contains(err.Error(), "episode 0 is interactive but Config.NewDecide is nil") {
		t.Fatalf("interactive episode without Decide: err %v", err)
	}
	if _, _, err := Run(testEpisodes(2)[1:], Config{}); err != nil {
		t.Fatalf("non-interactive episodes need no Decide: %v", err)
	}
}

// TestRunReturnsFirstErrorInSlotOrder: every episode is given the chance to
// finish, and the error reported is the lowest failing slot's, whichever
// worker hit its error first.
func TestRunReturnsFirstErrorInSlotOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		eps := testEpisodes(5)
		for _, bad := range []int{1, 2, 4} { // one non-interactive, two interactive
			eps[bad].Cfg.NoValidate = false
			jobs := append([]workload.Job(nil), eps[bad].Jobs...)
			jobs[bad], jobs[bad+1] = jobs[bad+1], jobs[bad] // unsorted at index bad+1
			if jobs[bad].Submit == jobs[bad+1].Submit {
				t.Fatalf("window %d: jobs %d and %d share a submit time; pick another pair", bad, bad, bad+1)
			}
			eps[bad].Jobs = jobs
		}
		res, _, err := Run(eps, Config{Workers: workers, NewDecide: (&slotDecide{}).worker})
		if err == nil || !strings.Contains(err.Error(), "not sorted by submit at index 2") {
			t.Fatalf("workers=%d: err %v, want slot 1's (unsorted at index 2)", workers, err)
		}
		if len(res[0].Results) == 0 || len(res[3].Results) == 0 {
			t.Fatalf("workers=%d: healthy episodes did not finish", workers)
		}
		if len(res[1].Results) != 0 || len(res[2].Results) != 0 || len(res[4].Results) != 0 {
			t.Fatalf("workers=%d: failed episodes left results", workers)
		}
	}
}

// flightIDs reduces a ring to the identities the engine promises are
// independent of scheduling: span IDs with their parents, and the
// (epoch, slot, seq) keys of the explain records.
func flightIDs(t *testing.T, ring *obs.TraceRing) map[string]int {
	t.Helper()
	tr, err := explain.ReadFTrace(bytes.NewReader(ring.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]int)
	for _, sp := range tr.Spans {
		ids[fmt.Sprintf("%s %d<-%d", sp.Name, sp.ID, sp.Parent)]++
	}
	for _, r := range tr.Records {
		ids[fmt.Sprintf("decision (%d,%d,%d)", r.Epoch, r.Traj, r.Seq)]++
	}
	return ids
}

// recordingDecide is slotDecide plus one explain record per decision, keyed
// by a per-slot sequence only the slot's owner advances — the shape of
// core's sampler.
func recordingDecide(d *slotDecide, ring *obs.TraceRing, slots int) func(int) Decide {
	seqs := make([]int, slots)
	return func(w int) Decide {
		inner := d.worker(w)
		return func(pending []Pending, rejects []bool) {
			inner(pending, rejects)
			for i, p := range pending {
				ring.EmitDecision(&obs.ExplainRecord{Epoch: 3, Traj: p.Slot, Seq: seqs[p.Slot], Rejected: rejects[i]})
				seqs[p.Slot]++
			}
		}
	}
}

// TestEquivWindowWorkers: results, decision counts and flight-record
// identities do not depend on the window or the worker count, and no worker
// is ever handed more than its window, a descending wave, or another
// worker's slot.
func TestEquivWindowWorkers(t *testing.T) {
	eps := testEpisodes(21)
	const root = obs.SpanID(77)
	var want []sim.Result
	var wantIDs map[string]int
	for _, window := range []int{1, 3, liveWindow} {
		for _, workers := range []int{1, 2, 8} {
			d := &slotDecide{}
			ring := obs.NewTraceRing(1<<14, 0)
			res, _, err := run(eps, Config{NewDecide: recordingDecide(d, ring, len(eps)), Ring: ring, SpanRoot: root}, workers, window)
			if err != nil {
				t.Fatal(err)
			}
			if d.bad != "" {
				t.Fatalf("window %d workers %d: %s", window, workers, d.bad)
			}
			for _, wave := range d.waves {
				if len(wave) > window {
					t.Fatalf("window %d workers %d: a Decide call saw %d pending", window, workers, len(wave))
				}
			}
			ids := flightIDs(t, ring)
			if ring.Dropped() != 0 {
				t.Fatalf("ring evicted %d records; grow it", ring.Dropped())
			}
			if want == nil {
				want, wantIDs = res, ids
				continue
			}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("window %d workers %d: results differ from window 1 workers 1", window, workers)
			}
			if !reflect.DeepEqual(ids, wantIDs) {
				t.Fatalf("window %d workers %d: flight identities differ from window 1 workers 1", window, workers)
			}
		}
	}
	var inspections, decisions int
	for _, r := range want {
		inspections += r.Inspections
	}
	for id, n := range wantIDs {
		if n != 1 {
			t.Fatalf("flight identity %q recorded %d times", id, n)
		}
		if strings.HasPrefix(id, "decision (") {
			decisions++
		}
	}
	if inspections == 0 || decisions != inspections {
		t.Fatalf("%d explain records for %d inspections", decisions, inspections)
	}
}

// TestResultSurvivesEnvReuse: at window 1 one Env serves every episode in
// turn; each Result must equal that of a run on an Env of its own.
func TestResultSurvivesEnvReuse(t *testing.T) {
	eps := testEpisodes(8)
	d := &slotDecide{}
	shared, _, err := run(eps, Config{NewDecide: d.worker}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range eps {
		one := &slotDecide{}
		fresh, _, err := run(eps[i:i+1], Config{NewDecide: one.worker, SlotBase: i}, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shared[i], fresh[0]) {
			t.Fatalf("episode %d: its result changed after its Env ran %d more episodes", i, len(eps)-1-i)
		}
	}
}

// TestReportAccounting: the episodes' shares add up to the workers' loop
// time, and that never exceeds workers x elapsed.
func TestReportAccounting(t *testing.T) {
	eps := testEpisodes(240)
	for _, workers := range []int{1, 2} {
		_, rep, err := Run(eps, Config{Workers: workers, NewDecide: (&slotDecide{}).worker})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i, s := range rep.EpisodeSeconds {
			if s <= 0 {
				t.Fatalf("workers=%d: episode %d was charged %v s", workers, i, s)
			}
			sum += s
		}
		busy, wall := rep.Busy.Seconds(), rep.Wall.Seconds()
		if math.Abs(sum-busy) > 0.02*busy {
			t.Fatalf("workers=%d: episode seconds sum to %.6f, Busy is %.6f", workers, sum, busy)
		}
		if busy > float64(workers)*wall {
			t.Fatalf("workers=%d: Busy %.6f exceeds workers x Wall %.6f", workers, busy, wall)
		}
	}
}
