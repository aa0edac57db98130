package serve

import (
	"net/http"
	"strconv"

	"schedinspector/internal/obs"
)

// Per-decision explainability for the serving path: every /v1/inspect
// verdict is recorded — feature vector, logits, probabilities, verdict,
// scheduling context — into the flight ring, and the last N decisions in
// it are served back over GET /v1/explain/last. This is the
// flight-recorder answer to "why did the model reject job X at 03:12"
// without restarting the daemon or attaching a debugger: the ring has the
// recent past queryable over HTTP, and inspectord's -flight file (when
// enabled) streams the same records to disk.

// defaultExplainLast is how many records /v1/explain/last returns when the
// n query parameter is absent.
const defaultExplainLast = 32

// ExplainLastResponse is the GET /v1/explain/last payload.
type ExplainLastResponse struct {
	// Total counts decisions served over the process lifetime, including
	// those the ring has since dropped.
	Total uint64 `json:"total"`
	// FeatureNames labels the indices of every record's features array,
	// per the served model's feature mode.
	FeatureNames []string `json:"feature_names"`
	// Records are the most recent decisions, oldest first.
	Records []obs.ExplainRecord `json:"records"`
}

// explainLast is the GET /v1/explain/last route. The optional n query
// parameter (default 32) bounds how many records return; what the ring
// still holds caps it.
func (h *Handler) explainLast(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	n := defaultExplainLast
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			http.Error(w, "n must be a positive integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	resp := ExplainLastResponse{Total: uint64(h.decSeq.Load())}
	// One read: the names label every record, across a feature-mode swap.
	// Records are non-nil, so an empty ring serves [] rather than null.
	resp.FeatureNames, resp.Records = h.ring.LastDecisions(n)
	buf := readBufs.Get().(*[]byte)
	defer readBufs.Put(buf)
	w.Header().Set("Content-Type", "application/json")
	var err error
	if *buf, err = appendExplainLast((*buf)[:0], &resp); err == nil {
		w.Write(*buf)
	}
}
