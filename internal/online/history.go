package online

import (
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"time"
)

// CandidateRecord is one entry in the loop's audit trail: every candidate
// that reached a verdict — promoted, rejected on margin, diverged, voided
// by a generation race, confirmed after probation, or rolled back — with
// both shadow-eval arms, so "why is generation N serving?" is answerable
// after the fact without log archaeology.
type CandidateRecord struct {
	Unix       int64  `json:"unix"`
	Cycle      uint64 `json:"cycle"`
	Generation int64  `json:"generation"`
	// Verdict is one of: promoted, confirmed, rolled-back, rejected,
	// diverged, eval-failed, stale-generation.
	Verdict string `json:"verdict"`
	// CandidateScore and ServingScore are the two shadow-eval arms
	// (candidate vs incumbent; on probation verdicts, promoted model vs
	// pre-promotion model). Zero when the verdict precedes scoring.
	CandidateScore float64 `json:"candidate_score"`
	ServingScore   float64 `json:"serving_score"`
	// Margin is CandidateScore - ServingScore, the number the promotion
	// gate compared against Config.Margin.
	Margin     float64 `json:"margin"`
	WindowSize int     `json:"window_size"`
	Detail     string  `json:"detail,omitempty"`
}

// DefaultHistoryCap bounds the candidate-verdict audit ring served at
// /v1/online/history.
const DefaultHistoryCap = 64

// candHistory is a bounded ring of verdict records.
type candHistory struct {
	mu   sync.Mutex
	buf  []CandidateRecord
	head int
	n    int
}

func newCandHistory(capRecords int) *candHistory {
	return &candHistory{buf: make([]CandidateRecord, capRecords)}
}

func (h *candHistory) add(rec CandidateRecord) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buf[h.head] = rec
	h.head = (h.head + 1) % len(h.buf)
	if h.n < len(h.buf) {
		h.n++
	}
}

func (h *candHistory) list() []CandidateRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]CandidateRecord, 0, h.n)
	for i := 0; i < h.n; i++ {
		out = append(out, h.buf[(h.head-h.n+i+len(h.buf))%len(h.buf)])
	}
	return out
}

// record stamps and stores one verdict. Non-finite scores are zeroed —
// the record must survive encoding/json, and a diverged candidate's NaN
// score carries no information the verdict doesn't.
func (l *Loop) record(rec CandidateRecord) {
	rec.Unix = time.Now().Unix()
	rec.CandidateScore = finiteOrZero(rec.CandidateScore)
	rec.ServingScore = finiteOrZero(rec.ServingScore)
	rec.Margin = finiteOrZero(rec.Margin)
	l.hist.add(rec)
}

func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// History returns the retained verdict records, oldest first.
func (l *Loop) History() []CandidateRecord {
	return l.hist.list()
}

// HistoryHandler serves GET /v1/online/history:
// {"capacity": N, "candidates": [...oldest first...]}.
func (l *Loop) HistoryHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		recs := l.History()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Capacity   int               `json:"capacity"`
			Candidates []CandidateRecord `json:"candidates"`
		}{Capacity: len(l.hist.buf), Candidates: recs})
	})
}
