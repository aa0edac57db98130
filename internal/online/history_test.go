package online

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"schedinspector/internal/core"
	"schedinspector/internal/workload"
)

// TestHistoryRecordsVerdicts drives the loop through reject → promote →
// rollback → promote → confirm and checks the audit ring saw every
// verdict in order, with both shadow-eval arms attached.
func TestHistoryRecordsVerdicts(t *testing.T) {
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

	l.RunCycle(context.Background()) // rejected (0.02 < 0.05)
	scores[cand] = 0.20
	l.RunCycle(context.Background()) // promoted → gen 2
	scores[serving] = 0.9
	scores[cand] = 0.1
	l.RunCycle(context.Background()) // rolled back → gen 3
	scores[cand] = 2.0
	scores[serving] = 0.0
	l.RunCycle(context.Background()) // promoted → gen 4
	l.RunCycle(context.Background()) // confirmed

	recs := l.History()
	wantVerdicts := []string{"rejected", "promoted", "rolled-back", "promoted", "confirmed"}
	if len(recs) != len(wantVerdicts) {
		t.Fatalf("records: %+v", recs)
	}
	for i, want := range wantVerdicts {
		if recs[i].Verdict != want {
			t.Errorf("record %d verdict = %q, want %q (%+v)", i, recs[i].Verdict, want, recs[i])
		}
		if recs[i].Unix == 0 || recs[i].Cycle != uint64(i+1) || recs[i].WindowSize == 0 {
			t.Errorf("record %d missing bookkeeping: %+v", i, recs[i])
		}
	}
	if recs[0].CandidateScore != 0.10 || recs[0].ServingScore != 0.08 {
		t.Errorf("rejection scores: %+v", recs[0])
	}
	if recs[1].Generation != 2 || recs[1].Margin <= 0 {
		t.Errorf("promotion record: %+v", recs[1])
	}
	if recs[2].Generation != 3 {
		t.Errorf("rollback record: %+v", recs[2])
	}
	if recs[4].Generation != 4 {
		t.Errorf("confirmation record: %+v", recs[4])
	}
}

func TestHistoryRingBound(t *testing.T) {
	h := newCandHistory(3)
	for i := 1; i <= 10; i++ {
		h.add(CandidateRecord{Cycle: uint64(i)})
	}
	recs := h.list()
	if len(recs) != 3 || recs[0].Cycle != 8 || recs[2].Cycle != 10 {
		t.Fatalf("ring contents: %+v", recs)
	}
}

func TestHistoryHandler(t *testing.T) {
	srv := newFakeServer(testInspector(1))
	l, err := New(Config{Source: ringSource{newTestRing(1)}, Serving: srv})
	if err != nil {
		t.Fatal(err)
	}
	l.record(CandidateRecord{Cycle: 1, Generation: 2, Verdict: "promoted",
		CandidateScore: 1.5, ServingScore: 1.2, Margin: 0.3, WindowSize: 512})

	rec := httptest.NewRecorder()
	l.HistoryHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/online/history", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var doc struct {
		Capacity   int               `json:"capacity"`
		Candidates []CandidateRecord `json:"candidates"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, rec.Body.String())
	}
	if doc.Capacity != DefaultHistoryCap || len(doc.Candidates) != 1 {
		t.Fatalf("doc: %+v", doc)
	}
	c := doc.Candidates[0]
	if c.Verdict != "promoted" || c.CandidateScore != 1.5 || c.Margin != 0.3 || c.Unix == 0 {
		t.Fatalf("candidate: %+v", c)
	}

	post := httptest.NewRecorder()
	l.HistoryHandler().ServeHTTP(post, httptest.NewRequest("POST", "/v1/online/history", nil))
	if post.Code != 405 {
		t.Fatalf("POST status %d, want 405", post.Code)
	}
}
