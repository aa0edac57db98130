package online

import (
	"encoding/json"
	"net/http"
)

// loopState enumerates the cycle's phases for the state gauge and status
// endpoint.
type loopState int

const (
	stateIdle loopState = iota
	stateTailing
	stateCollecting
	stateRetraining
	stateShadowEval
	statePromoting
)

func (s loopState) String() string {
	switch s {
	case stateIdle:
		return "idle"
	case stateTailing:
		return "tailing"
	case stateCollecting:
		return "collecting"
	case stateRetraining:
		return "retraining"
	case stateShadowEval:
		return "shadow-eval"
	case statePromoting:
		return "promoting"
	}
	return "unknown"
}

func (l *Loop) setState(s loopState) {
	l.m.state.Set(float64(s))
	l.mirror(func(st *Status) { st.State = s.String() })
}

// Status is the externally visible snapshot of the state machine, served
// as JSON on GET /v1/online/status and asserted on by cmd's
// TestProcessOnlineMesh.
type Status struct {
	Enabled bool   `json:"enabled"`
	State   string `json:"state"`
	Cycles  uint64 `json:"cycles"`

	WindowRecords  int    `json:"window_records"`
	WindowCapacity int    `json:"window_capacity"`
	MinWindow      int    `json:"min_window"`
	LastSeq        int    `json:"last_seq"`
	TailedTotal    uint64 `json:"tailed_total"`

	Retrains        uint64 `json:"retrains"`
	RetrainEpochs   uint64 `json:"retrain_epochs"`
	RetrainFailures uint64 `json:"retrain_failures"`

	ShadowEvals        uint64  `json:"shadow_evals"`
	LastCandidateScore float64 `json:"last_candidate_score"`
	LastServingScore   float64 `json:"last_serving_score"`
	Margin             float64 `json:"margin"`

	Promotions        uint64 `json:"promotions"`
	Rejections        uint64 `json:"rejections"`
	Rollbacks         uint64 `json:"rollbacks"`
	ServingGeneration int64  `json:"serving_generation"`

	LastError     string `json:"last_error,omitempty"`
	LastCycleUnix int64  `json:"last_cycle_unix,omitempty"`
}

// Status returns a consistent copy of the loop's externally visible state.
func (l *Loop) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.st
	// The generation can move outside cycles (operator reloads); report
	// the live value so tests and dashboards never read stale.
	_, st.ServingGeneration = l.cfg.Serving.Current()
	return st
}

// StatusHandler serves GET /v1/online/status.
func (l *Loop) StatusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(l.Status())
	})
}
