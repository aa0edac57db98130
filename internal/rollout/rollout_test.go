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

// testSeqLen is the window every test episode runs.
const testSeqLen = 48

// testEpisodes builds n episodes over windows of the test trace (distinct
// for the first 13): even slots interactive, odd slots the straight-through
// base run.
func testEpisodes(n int) []Episode {
	eps := make([]Episode, n)
	for i := range eps {
		eps[i] = Episode{
			Start: 40 * i % 520,
			Cfg: sim.Config{
				MaxProcs: testTrace.MaxProcs, Policy: sched.SJF(), Backfill: true, NoValidate: true,
			},
			Interactive: i%2 == 0,
		}
	}
	return eps
}

// over points cfg at the test trace's testSeqLen-job windows.
func over(cfg Config) Config {
	cfg.Trace, cfg.SeqLen = testTrace, testSeqLen
	return cfg
}

// verdict is the test Decides' answer to the n-th decision of slot at st: a
// pure function of (slot, n, state), the property the engine's determinism
// rests on.
func verdict(slot, n int, st *sim.State) bool {
	return (n+slot)%3 == 0 && st.Rejections < 2
}

// oracle is what Run must return for eps run at slot base over tr's
// seqLen-job windows, computed without the driver: a straight-through
// episode is sim.Run over its own copy of the window, an interactive one a
// sequential sim.Env on a fresh Env fed verdict's answers.
func oracle(t *testing.T, tr *workload.Trace, seqLen int, eps []Episode, base int) []Outcome {
	t.Helper()
	out := make([]Outcome, len(eps))
	for i, ep := range eps {
		jobs := tr.Window(ep.Start, seqLen)
		var res sim.Result
		if ep.Interactive {
			env := sim.NewEnv()
			st, done, err := env.Reset(jobs, ep.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; !done; n++ {
				st, done = env.Step(verdict(base+i, n, st))
			}
			res = env.Result()
		} else {
			var err error
			if res, err = sim.Run(jobs, ep.Cfg); err != nil {
				t.Fatal(err)
			}
		}
		out[i] = Outcome{Summary: res.Summary(ep.Cfg.MaxProcs), Inspections: res.Inspections, Rejections: res.Rejections}
	}
	return out
}

// outcomeBits is an Outcome with every float as its bit pattern, so ==
// means bit-identical.
func outcomeBits(o Outcome) [8]uint64 {
	s := o.Summary
	return [8]uint64{uint64(s.Jobs), math.Float64bits(s.AvgBSLD), math.Float64bits(s.AvgWait),
		math.Float64bits(s.MaxBSLD), math.Float64bits(s.Util), math.Float64bits(s.Makespan),
		uint64(o.Inspections), uint64(o.Rejections)}
}

// sameOutcomes fails unless got and want are bit-identical slot by slot.
func sameOutcomes(t *testing.T, what string, got, want []Outcome) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outcomes, want %d", what, len(got), len(want))
	}
	for i := range want {
		if outcomeBits(got[i]) != outcomeBits(want[i]) {
			t.Fatalf("%s: slot %d outcome %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// slotDecide hands out Decides that answer with verdict. It records every
// wave it was handed and by which worker; the lock is the test's own
// bookkeeping, not part of the contract.
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
			rejects[i] = verdict(p.Slot, n, p.State)
		}
		d.waves = append(d.waves, wave)
	}
}

// TestRunSlotOrderAndWorkerEquivalence: outcomes come back in slot order and
// are identical whether episodes run one at a time or four at once.
func TestRunSlotOrderAndWorkerEquivalence(t *testing.T) {
	eps := testEpisodes(6)
	want := oracle(t, testTrace, testSeqLen, eps, 0)
	runAt := func(workers int) *slotDecide {
		d := &slotDecide{}
		out, rep, err := Run(eps, over(Config{Workers: workers, NewDecide: d.worker}))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.EpisodeSeconds) != len(eps) {
			t.Fatalf("workers=%d: %d episode timings for %d episodes", workers, len(rep.EpisodeSeconds), len(eps))
		}
		if d.bad != "" {
			t.Fatalf("workers=%d: %s", workers, d.bad)
		}
		// The windows start 40 jobs apart, so only slot order matches the
		// oracle's.
		sameOutcomes(t, fmt.Sprintf("workers=%d", workers), out, want)
		return d
	}
	seqD := runAt(1)
	parD := runAt(4)
	for i, o := range want {
		if o.Summary.Jobs != testSeqLen {
			t.Fatalf("slot %d summarizes %d jobs, its window has %d", i, o.Summary.Jobs, testSeqLen)
		}
		if (o.Inspections > 0) != eps[i].Interactive {
			t.Fatalf("slot %d: %d inspections, interactive=%v", i, o.Inspections, eps[i].Interactive)
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
	if _, _, err := run(eps, over(Config{NewDecide: d.worker}), 1, liveWindow); err != nil {
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
		ring := obs.NewTraceRing(1 << 12)
		out, _, err := Run(eps, over(Config{Workers: workers, NewDecide: d.worker, Ring: ring, SpanRoot: root, SlotBase: base}))
		if err != nil {
			t.Fatal(err)
		}
		sameOutcomes(t, fmt.Sprintf("workers=%d", workers), out, oracle(t, testTrace, testSeqLen, eps, base))
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
		for _, sp := range tr.Spans {
			if sp.Name != "episode" {
				t.Fatalf("workers=%d: span %q in the ring; the driver emits episode spans only", workers, sp.Name)
			}
			if sp.Parent != root {
				t.Fatalf("episode span parent %d, want the root %d", sp.Parent, root)
			}
			if sp.Attrs[1].Key != "jobs" || sp.Attrs[1].Num != testSeqLen {
				t.Fatalf("episode span attr %+v, want jobs=%d", sp.Attrs[1], testSeqLen)
			}
			episodes[sp.ID] = int(sp.Attrs[0].Num)
		}
		if len(episodes) != len(eps) {
			t.Fatalf("workers=%d: %d episode spans for %d episodes", workers, len(episodes), len(eps))
		}
		for i := range eps {
			id := obs.DeriveSpanID(uint64(root), uint64(base+i))
			if slot, ok := episodes[id]; !ok || slot != base+i {
				t.Fatalf("workers=%d: episode %d has no span with ID derived from slot %d (slot attr %d)", workers, i, base+i, slot)
			}
			if got, want := out[i].Inspections, d.seq[base+i]; got != want {
				t.Fatalf("workers=%d: slot %d reports %d inspections, Decide answered %d", workers, base+i, got, want)
			}
		}
	}
}

// TestRunDoesNotMutateCallerEpisodes: a traced run leaves the caller's
// episodes as they were, and the trace windows are copied out, never
// written.
func TestRunDoesNotMutateCallerEpisodes(t *testing.T) {
	eps := testEpisodes(3)
	epsBefore := append([]Episode(nil), eps...)
	before := testTrace.Clone()
	d := &slotDecide{}
	ring := obs.NewTraceRing(1 << 12)
	if _, _, err := Run(eps, over(Config{Workers: 2, NewDecide: d.worker, Ring: ring, SpanRoot: 9})); err != nil {
		t.Fatal(err)
	}
	if ring.Total() == 0 {
		t.Fatal("ring attached but nothing recorded")
	}
	for i := range eps {
		got, want := eps[i], epsBefore[i]
		got.Cfg.Policy, want.Cfg.Policy = nil, nil // func-valued: DeepEqual cannot compare them
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Run wrote into the caller's episode %d: %+v, was %+v", i, got, want)
		}
	}
	if !reflect.DeepEqual(testTrace.Jobs, before.Jobs) {
		t.Fatal("Run wrote into its trace")
	}
}

// TestRunRejectsBadEpisodes: decisions come from Decide and nowhere else,
// and every episode names a window the trace has.
func TestRunRejectsBadEpisodes(t *testing.T) {
	eps := testEpisodes(2)
	eps[1].Cfg.Inspector = func(*sim.State) bool { return false }
	if _, _, err := Run(eps, over(Config{NewDecide: (&slotDecide{}).worker})); err == nil || !strings.Contains(err.Error(), "episode 1 sets Cfg.Inspector") {
		t.Fatalf("episode with its own Inspector: err %v", err)
	}
	if _, _, err := Run(testEpisodes(2), over(Config{})); err == nil || !strings.Contains(err.Error(), "episode 0 is interactive but Config.NewDecide is nil") {
		t.Fatalf("interactive episode without Decide: err %v", err)
	}
	if _, _, err := Run(testEpisodes(2)[1:], over(Config{})); err != nil {
		t.Fatalf("non-interactive episodes need no Decide: %v", err)
	}
	eps = testEpisodes(3)
	eps[2].Start = testTrace.Len() - testSeqLen + 1
	if _, _, err := Run(eps, over(Config{NewDecide: (&slotDecide{}).worker})); err == nil || !strings.Contains(err.Error(), "episode 2 starts at") {
		t.Fatalf("window past the trace's end: err %v", err)
	}
	if _, _, err := Run(testEpisodes(1), Config{NewDecide: (&slotDecide{}).worker}); err == nil || !strings.Contains(err.Error(), "episode 0 starts at") {
		t.Fatalf("no trace: err %v", err)
	}
}

// TestRunReturnsFirstErrorInSlotOrder: every episode is given the chance to
// finish, and the error reported is the lowest failing slot's, whichever
// worker hit its error first.
func TestRunReturnsFirstErrorInSlotOrder(t *testing.T) {
	eps := testEpisodes(5)
	// Unsort one pair of jobs inside each bad episode's window, where no
	// other episode's window reaches (windows start 40 apart and overlap by
	// 8), and have only the bad episodes validate.
	tr := testTrace.Clone()
	for _, bad := range []int{1, 2, 4} { // one non-interactive, two interactive
		eps[bad].Cfg.NoValidate = false
		k := eps[bad].Start + 10 + bad // unsorted at window index 11+bad
		if tr.Jobs[k].Submit == tr.Jobs[k+1].Submit {
			t.Fatalf("window %d: jobs %d and %d share a submit time; pick another pair", bad, k, k+1)
		}
		tr.Jobs[k], tr.Jobs[k+1] = tr.Jobs[k+1], tr.Jobs[k]
	}
	for _, workers := range []int{1, 4} {
		out, _, err := Run(eps, Config{Trace: tr, SeqLen: testSeqLen, Workers: workers, NewDecide: (&slotDecide{}).worker})
		if err == nil || !strings.Contains(err.Error(), "not sorted by submit at index 12") {
			t.Fatalf("workers=%d: err %v, want slot 1's (unsorted at index 12)", workers, err)
		}
		// Slot 3 is straight through, so the oracle's slot numbering of the
		// pair cannot change its outcome.
		healthy := oracle(t, tr, testSeqLen, []Episode{eps[0], eps[3]}, 0)
		sameOutcomes(t, fmt.Sprintf("workers=%d healthy slots 0 and 3", workers), []Outcome{out[0], out[3]}, healthy)
		for _, bad := range []int{1, 2, 4} {
			if out[bad] != (Outcome{}) {
				t.Fatalf("workers=%d: failed episode %d left outcome %+v", workers, bad, out[bad])
			}
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

// TestEquivWindowWorkers is the driver's oracle at every window and worker
// count: each straight-through outcome equals sim.Run over its window and
// each interactive one a sequential Env fed the same verdicts, bit for bit;
// flight-record identities do not depend on the window or the worker count;
// and no worker is ever handed more than its window, a descending wave, or
// another worker's slot.
func TestEquivWindowWorkers(t *testing.T) {
	eps := testEpisodes(21)
	want := oracle(t, testTrace, testSeqLen, eps, 0)
	const root = obs.SpanID(77)
	var wantIDs map[string]int
	for _, window := range []int{1, 3, liveWindow} {
		for _, workers := range []int{1, 2, 8} {
			d := &slotDecide{}
			ring := obs.NewTraceRing(1 << 14)
			out, _, err := run(eps, over(Config{NewDecide: recordingDecide(d, ring, len(eps)), Ring: ring, SpanRoot: root}), workers, window)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("window %d workers %d", window, workers)
			if d.bad != "" {
				t.Fatalf("%s: %s", what, d.bad)
			}
			for _, wave := range d.waves {
				if len(wave) > window {
					t.Fatalf("%s: a Decide call saw %d pending", what, len(wave))
				}
			}
			sameOutcomes(t, what, out, want)
			ids := flightIDs(t, ring)
			if ring.Dropped() != 0 {
				t.Fatalf("ring evicted %d records; grow it", ring.Dropped())
			}
			if wantIDs == nil {
				wantIDs = ids
			} else if !reflect.DeepEqual(ids, wantIDs) {
				t.Fatalf("%s: flight identities differ from window 1 workers 1", what)
			}
		}
	}
	var inspections, decisions int
	for _, o := range want {
		inspections += o.Inspections
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

// TestResultSurvivesEnvReuse: at window 1 one Env and one job buffer serve
// every episode in turn. The episodes alternate between windows far apart
// in the trace, with different job mixes and decision counts, so anything
// one episode left in the recycled buffers would change the next one's
// outcome away from a run on an Env of its own.
func TestResultSurvivesEnvReuse(t *testing.T) {
	eps := testEpisodes(10)
	for i := range eps {
		if i%2 == 0 {
			eps[i].Start = 20 * i
		} else {
			eps[i].Start = testTrace.Len() - testSeqLen - 30*i
		}
		eps[i].Interactive = i%4 != 3
	}
	d := &slotDecide{}
	shared, _, err := run(eps, over(Config{NewDecide: d.worker}), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameOutcomes(t, "one recycled Env", shared, oracle(t, testTrace, testSeqLen, eps, 0))
	distinct := make(map[[8]uint64]bool)
	for _, o := range shared {
		distinct[outcomeBits(o)] = true
	}
	if len(distinct) != len(eps) {
		t.Fatalf("%d distinct outcomes for %d episodes; the windows do not differ enough to show a stale buffer", len(distinct), len(eps))
	}
}

// TestReportAccounting: the episodes' shares add up to the workers' loop
// time, and that never exceeds workers x elapsed.
func TestReportAccounting(t *testing.T) {
	eps := testEpisodes(240)
	for _, workers := range []int{1, 2} {
		_, rep, err := Run(eps, over(Config{Workers: workers, NewDecide: (&slotDecide{}).worker}))
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
