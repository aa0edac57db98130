package rollout

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"schedinspector/internal/explain"
	"schedinspector/internal/obs"
	"schedinspector/internal/sched"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

var testTrace = workload.SDSCSP2Like(600, 5)

// testEpisodes builds n episodes over distinct windows of the test trace:
// even slots interactive, odd slots the straight-through base run.
func testEpisodes(n int) []Episode {
	eps := make([]Episode, n)
	for i := range eps {
		eps[i] = Episode{
			Jobs: testTrace.Window(40*i, 48),
			Cfg: sim.Config{
				MaxProcs: testTrace.MaxProcs, Policy: sched.SJF(), Backfill: true, NoValidate: true,
			},
			Interactive: i%2 == 0,
		}
	}
	return eps
}

// slotDecide is a Decide whose verdicts are a pure function of (slot, the
// slot's decision count, the state), the property the engine's determinism
// rests on. It records every slot it was handed, wave by wave.
type slotDecide struct {
	seq   map[int]int
	waves [][]int
}

func (d *slotDecide) decide(pending []Pending, rejects []bool) {
	if d.seq == nil {
		d.seq = make(map[int]int)
	}
	wave := make([]int, len(pending))
	for i, p := range pending {
		wave[i] = p.Slot
		n := d.seq[p.Slot]
		d.seq[p.Slot] = n + 1
		rejects[i] = (n+p.Slot)%3 == 0 && p.State.Rejections < 2
	}
	d.waves = append(d.waves, wave)
}

// TestRunSlotOrderAndWorkerEquivalence: results come back in slot order and
// are identical whether episodes run one at a time or four at once.
func TestRunSlotOrderAndWorkerEquivalence(t *testing.T) {
	eps := testEpisodes(6)
	run := func(workers int) ([]sim.Result, *slotDecide) {
		d := &slotDecide{}
		res, rep, err := Run(eps, Config{Workers: workers, Decide: d.decide})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(eps) || len(rep.EpisodeSeconds) != len(eps) {
			t.Fatalf("workers=%d: %d results, %d episode timings for %d episodes",
				workers, len(res), len(rep.EpisodeSeconds), len(eps))
		}
		return res, d
	}
	seq, seqD := run(1)
	par, parD := run(4)
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
	multi := false
	for _, wave := range parD.waves {
		multi = multi || len(wave) > 1
		for k := 1; k < len(wave); k++ {
			if wave[k] <= wave[k-1] {
				t.Fatalf("wave %v is not in ascending slot order", wave)
			}
		}
	}
	if !multi {
		t.Fatal("Workers=4 never coalesced two slots into one wave")
	}
	if !reflect.DeepEqual(seqD.seq, parD.seq) {
		t.Fatalf("per-slot decision counts differ: %v vs %v", seqD.seq, parD.seq)
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
		if _, _, err := Run(eps, Config{Workers: workers, Decide: d.decide, Ring: ring, SpanRoot: root, SlotBase: base}); err != nil {
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
	if _, _, err := Run(eps, Config{Workers: 2, Decide: d.decide, Ring: ring, SpanRoot: 9}); err != nil {
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
	if _, _, err := Run(eps, Config{Decide: (&slotDecide{}).decide}); err == nil || !strings.Contains(err.Error(), "episode 1 sets Cfg.Inspector") {
		t.Fatalf("episode with its own Inspector: err %v", err)
	}
	if _, _, err := Run(testEpisodes(2), Config{}); err == nil || !strings.Contains(err.Error(), "episode 0 is interactive but Config.Decide is nil") {
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
		res, _, err := Run(eps, Config{Workers: workers, Decide: (&slotDecide{}).decide})
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
