package online

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"schedinspector/internal/ckpt"
	"schedinspector/internal/core"
	"schedinspector/internal/explain"
	"schedinspector/internal/metrics"
	"schedinspector/internal/obs"
	"schedinspector/internal/workload"
)

func testInspector(seed int64) *core.Inspector {
	tr := workload.SDSCSP2Like(400, 3)
	return core.NewInspector(rand.New(rand.NewSource(seed)), core.ManualFeatures,
		core.NormalizerForTrace(tr, metrics.BSLD))
}

// fakeServer is a minimal Server for unit tests that must not spin up the
// full serve handler.
type fakeServer struct {
	mu    sync.Mutex
	insp  *core.Inspector
	gen   int64
	swaps []*core.Inspector
}

func newFakeServer(insp *core.Inspector) *fakeServer {
	return &fakeServer{insp: insp, gen: 1}
}

func (f *fakeServer) Current() (*core.Inspector, int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.insp, f.gen
}

func (f *fakeServer) Swap(insp *core.Inspector) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.insp = insp
	f.gen++
	f.swaps = append(f.swaps, insp)
}

// fillRing emits n plausible first-inspection decision records (plus a
// sprinkle of re-inspections) starting at sequence lo.
func fillRing(r *obs.TraceRing, lo, n int, rng *rand.Rand) {
	for i := 0; i < n; i++ {
		rec := obs.ExplainRecord{
			Seq:        lo + i,
			Time:       float64(lo+i) * 30,
			JobID:      lo + i + 1,
			Wait:       float64(rng.Intn(3600)),
			Procs:      1 + rng.Intn(32),
			Est:        float64(60 + rng.Intn(7200)),
			QueueLen:   1 + rng.Intn(20),
			FreeProcs:  rng.Intn(128),
			TotalProcs: 128,
			Features:   []float64{0.1, 0.2, 0.3},
			Logits:     []float64{0.5, -0.5},
			Probs:      []float64{0.7, 0.3},
		}
		if i%7 == 3 {
			rec.Rejections = 1 // re-inspection of an already-counted job
		}
		r.EmitDecision(&rec)
	}
}

type ringSource struct{ r *obs.TraceRing }

func (s ringSource) Snapshot() []byte { return s.r.Snapshot() }

func newTestRing(n int) *obs.TraceRing {
	r := obs.NewTraceRing(4096)
	r.SetMeta([]string{"a", "b", "c"}, "manual", 5)
	fillRing(r, 0, n, rand.New(rand.NewSource(7)))
	return r
}

func TestTailDedupeAndWindowBound(t *testing.T) {
	ring := newTestRing(100)
	srv := newFakeServer(testInspector(1))
	l, err := New(Config{
		Source: ringSource{ring}, Serving: srv,
		MinWindow: 1000, MaxWindow: 1000, // stay in collecting
	})
	if err != nil {
		t.Fatal(err)
	}
	l.RunCycle(context.Background())
	st := l.Status()
	if st.State != "collecting" || st.WindowRecords != 100 || st.TailedTotal != 100 {
		t.Fatalf("after first tail: %+v", st)
	}

	// Same image again: everything dedupes.
	l.RunCycle(context.Background())
	if st := l.Status(); st.WindowRecords != 100 || st.TailedTotal != 100 {
		t.Fatalf("dedupe failed: %+v", st)
	}

	// New decisions arrive; only they are tailed.
	fillRing(ring, 100, 50, rand.New(rand.NewSource(8)))
	l.RunCycle(context.Background())
	if st := l.Status(); st.WindowRecords != 150 || st.TailedTotal != 150 || st.LastSeq != 149 {
		t.Fatalf("incremental tail: %+v", st)
	}

	// The window is a bounded slide: overflow evicts the oldest. Margin 1
	// keeps the cycle's outcome a rejection so only the bound is under test.
	lb, err := New(Config{
		Source: ringSource{ring}, Serving: srv,
		MinWindow: 40, MaxWindow: 40, Margin: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	lb.scoreFn = func(*core.Inspector, *workload.Trace, int64) (float64, error) { return 0, nil }
	lb.candidateFn = func(_ context.Context, s *core.Inspector, _ *workload.Trace, _ int64) (*core.Inspector, *core.TrainerCheckpoint, error) {
		return s, nil, nil
	}
	lb.RunCycle(context.Background())
	if got := len(lb.window); got != 40 {
		t.Fatalf("window not bounded: %d records", got)
	}
	if lb.window[0].Seq != 110 {
		t.Fatalf("expected oldest surviving Seq 110, got %d", lb.window[0].Seq)
	}
}

func TestCorruptSourceKeepsServing(t *testing.T) {
	srv := newFakeServer(testInspector(1))
	bad := sourceFunc(func() []byte { return []byte("definitely not an ftrace image") })
	l, err := New(Config{Source: bad, Serving: srv, MinWindow: 10})
	if err != nil {
		t.Fatal(err)
	}
	l.RunCycle(context.Background())
	st := l.Status()
	if st.LastError == "" {
		t.Fatal("corrupt image should surface an error")
	}
	if l.m.corruptWindows.Value() != 1 {
		t.Fatalf("corrupt_windows = %v, want 1", l.m.corruptWindows.Value())
	}
	if len(srv.swaps) != 0 || st.ServingGeneration != 1 {
		t.Fatalf("serving must be untouched: %+v", st)
	}
}

type sourceFunc func() []byte

func (f sourceFunc) Snapshot() []byte { return f() }

func TestReconstructTrace(t *testing.T) {
	ring := newTestRing(70)
	recs, _, err := explain.TailDecisions(ring.Snapshot(), -1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ReconstructTrace(recs, "w")
	if err != nil {
		t.Fatal(err)
	}
	// 70 records minus the i%7==3 re-inspections (10 of them).
	if tr.Len() != 60 {
		t.Fatalf("reconstructed %d jobs, want 60 (re-inspections dropped)", tr.Len())
	}
	if tr.MaxProcs != 128 {
		t.Fatalf("MaxProcs %d, want cluster size 128", tr.MaxProcs)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < tr.Len(); i++ {
		if tr.Jobs[i].Submit < tr.Jobs[i-1].Submit {
			t.Fatal("submit order violated")
		}
	}

	// A window of nothing but re-inspections cannot be replayed.
	allRej := make([]obs.ExplainRecord, 5)
	for i := range allRej {
		allRej[i] = obs.ExplainRecord{Seq: i, Rejections: 2, Procs: 1, Est: 10}
	}
	if _, err := ReconstructTrace(allRej, "rej"); err == nil {
		t.Fatal("want error for all-reinspection window")
	}
}

func TestMarginGateAndRollback(t *testing.T) {
	ring := newTestRing(120)
	serving := testInspector(1)
	srv := newFakeServer(serving)
	cand := testInspector(2)
	l, err := New(Config{
		Source: ringSource{ring}, Serving: srv,
		MinWindow: 50, Margin: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	l.candidateFn = func(context.Context, *core.Inspector, *workload.Trace, int64) (*core.Inspector, *core.TrainerCheckpoint, error) {
		return cand, nil, nil
	}
	scores := map[*core.Inspector]float64{cand: 0.10, serving: 0.08}
	l.scoreFn = func(in *core.Inspector, _ *workload.Trace, _ int64) (float64, error) {
		return scores[in], nil
	}

	// 0.10 - 0.08 = 0.02 < margin 0.05: rejected, serving untouched.
	l.RunCycle(context.Background())
	st := l.Status()
	if st.Rejections != 1 || st.Promotions != 0 || st.ServingGeneration != 1 {
		t.Fatalf("margin gate failed: %+v", st)
	}

	// Clear the margin: promoted, generation bumps, probation armed.
	scores[cand] = 0.20
	l.RunCycle(context.Background())
	st = l.Status()
	if st.Promotions != 1 || st.ServingGeneration != 2 {
		t.Fatalf("promotion failed: %+v", st)
	}
	if l.prev != serving {
		t.Fatal("probation must remember the pre-promotion model")
	}

	// Next cycle: the old model wildly outscores the promoted one on the
	// fresh holdout — rollback (a forward swap back to the old weights).
	scores[serving] = 0.9
	scores[cand] = 0.1
	l.RunCycle(context.Background())
	st = l.Status()
	if st.Rollbacks != 1 || st.ServingGeneration != 3 {
		t.Fatalf("rollback failed: %+v", st)
	}
	if got, _ := srv.Current(); got != serving {
		t.Fatal("rollback must restore the pre-promotion model")
	}
	if l.prev != nil {
		t.Fatal("probation must end after the check")
	}

	// Promote again and confirm this time (serving keeps its score edge).
	scores[cand] = 2.0
	scores[serving] = 0.0
	l.RunCycle(context.Background()) // promotes cand at gen 4
	scores[cand] = 2.0               // serving (== cand) still ahead of prev
	l.RunCycle(context.Background()) // confirmation
	st = l.Status()
	if st.Promotions != 2 || st.Rollbacks != 1 || st.ServingGeneration != 4 {
		t.Fatalf("confirmation failed: %+v", st)
	}
}

func TestDivergedCandidateRejected(t *testing.T) {
	ring := newTestRing(120)
	srv := newFakeServer(testInspector(1))
	l, err := New(Config{Source: ringSource{ring}, Serving: srv, MinWindow: 50})
	if err != nil {
		t.Fatal(err)
	}
	bad := testInspector(3)
	bad.Agent.Policy.W[0][0] = math.NaN()
	l.candidateFn = func(context.Context, *core.Inspector, *workload.Trace, int64) (*core.Inspector, *core.TrainerCheckpoint, error) {
		return bad, nil, nil
	}
	l.scoreFn = func(*core.Inspector, *workload.Trace, int64) (float64, error) {
		t.Fatal("a diverged candidate must never reach shadow eval")
		return 0, nil
	}
	l.RunCycle(context.Background())
	st := l.Status()
	if st.Rejections != 1 || st.Promotions != 0 || st.ServingGeneration != 1 {
		t.Fatalf("diverged candidate not rejected: %+v", st)
	}
}

// TestNewRefusesNonFiniteMargin: a NaN margin passes the promotion gate
// and never trips the rollback check, and an infinite one fixes the
// verdict whatever the scores; New refuses all three and names the field.
func TestNewRefusesNonFiniteMargin(t *testing.T) {
	srv := newFakeServer(testInspector(1))
	for _, m := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		l, err := New(Config{Source: ringSource{newTestRing(1)}, Serving: srv, Margin: m})
		if err == nil || !strings.Contains(err.Error(), "Margin") {
			t.Errorf("New with Margin %v: loop %v, error %v; want an error naming Margin", m, l != nil, err)
		}
	}
}

func TestStatusHandler(t *testing.T) {
	srv := newFakeServer(testInspector(1))
	l, err := New(Config{Source: ringSource{newTestRing(1)}, Serving: srv})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	l.StatusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/online/status", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || st.ServingGeneration != 1 {
		t.Fatalf("status payload: %+v", st)
	}
	rec = httptest.NewRecorder()
	l.StatusHandler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/online/status", nil))
	if rec.Code != 405 {
		t.Fatalf("POST status %d, want 405", rec.Code)
	}
}

// TestFullCycleRealRetrain runs one genuine cycle — real warm-start
// retrain through the trainer phases and a real paired shadow evaluation —
// against a synthetic decision window, and requires the cycle to land in
// exactly one of the two legal terminal states with serving intact
// throughout (any promotion must come from the margin gate, not a crash).
func TestFullCycleRealRetrain(t *testing.T) {
	if testing.Short() {
		t.Skip("real retrain cycle")
	}
	ring := newTestRing(400)
	serving := testInspector(1)
	srv := newFakeServer(serving)
	dir := t.TempDir()
	l, err := New(Config{
		Source: ringSource{ring}, Serving: srv,
		MinWindow: 200, Epochs: 1, Batch: 4, SeqLen: 32,
		ShadowSequences: 4, ShadowSeqLen: 32,
		Seed: 42, PromotedDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	l.RunCycle(context.Background())
	st := l.Status()
	if st.Retrains != 1 || st.RetrainFailures != 0 {
		t.Fatalf("retrain did not run cleanly: %+v", st)
	}
	if st.ShadowEvals != 1 {
		t.Fatalf("shadow eval did not run: %+v", st)
	}
	if st.Promotions+st.Rejections != 1 {
		t.Fatalf("cycle must end promoted or rejected: %+v", st)
	}
	if st.Promotions == 1 {
		if st.ServingGeneration != 2 {
			t.Fatalf("promotion must bump generation: %+v", st)
		}
		// The promoted candidate is persisted as a loadable checkpoint.
		entries, err := ckpt.List(dir)
		if err != nil || len(entries) != 1 {
			t.Fatalf("promoted dir: entries=%v err=%v", entries, err)
		}
		insp, err := core.LoadServable(entries[0].Path, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		cur, _ := srv.Current()
		if insp.Mode != cur.Mode || insp.Norm != cur.Norm {
			t.Fatal("persisted checkpoint must match the promoted model's contract")
		}
	} else if st.ServingGeneration != 1 {
		t.Fatalf("rejection must leave serving untouched: %+v", st)
	}
}

func TestStartStop(t *testing.T) {
	srv := newFakeServer(testInspector(1))
	l, err := New(Config{
		Source: ringSource{newTestRing(10)}, Serving: srv,
		Interval: time.Millisecond, MinWindow: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := l.Start(context.Background())
	deadline := time.Now().Add(5 * time.Second)
	for l.Status().Cycles == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	if l.Status().Cycles == 0 {
		t.Fatal("ticker never fired")
	}
}
