package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"schedinspector/internal/core"
)

// Model hot-swap. A running inspectord can pick up a newly trained model
// without dropping in-flight requests: the replacement is loaded and
// validated entirely off the serving path, then installed as one atomic
// snapshot under the model lock (see decide.go), between two decisions.

// Swap replaces the served inspector. When Swap returns, the new snapshot
// and its explain/trace meta are visible, and every later decision is
// answered by the replacement.
func (h *Handler) Swap(insp *core.Inspector) { h.applySwap(insp) }

// applySwap installs a new model snapshot under the model lock, brings the
// flight ring's meta and the model metrics in step, and returns the
// generation it installed. Holding the lock serializes it against every
// decision, so no record can be emitted under a header that does not
// describe it.
func (h *Handler) applySwap(insp *core.Inspector) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	gen := h.snap.Load().gen + 1
	h.snap.Store(&snapshot{insp: insp, gen: gen})
	h.ring.SetMeta(insp.Mode.FeatureNames(), insp.Mode.String(), insp.Norm.MaxRejections)
	h.params.Set(float64(insp.Agent.Policy.NumParams()))
	h.reloads.Inc()
	h.generation.Set(float64(gen))
	return gen
}

// Current returns the inspector presently answering decisions and its
// generation number. The pair is read from one atomic snapshot, so it is
// always internally consistent even across concurrent swaps; the returned
// inspector's weights are immutable (swaps install new models, they never
// mutate the old one), so callers may evaluate or clone it freely.
func (h *Handler) Current() (*core.Inspector, int64) {
	s := h.snap.Load()
	return s.insp, s.gen
}

// SetReloader installs the function the reload triggers call to produce a
// replacement model (typically re-reading the model file from disk). Set
// it once before serving; a nil reloader leaves /v1/admin/reload disabled.
func (h *Handler) SetReloader(fn func() (*core.Inspector, error)) {
	h.reloadMu.Lock()
	h.reloader = fn
	h.reloadMu.Unlock()
}

// ReloadResponse reports the outcome of a successful reload.
type ReloadResponse struct {
	Generation int `json:"generation"`
	Params     int `json:"policy_params"`
}

// Reload runs the configured reloader and swaps the result in. The load
// happens without holding the model lock, so serving continues at full
// speed while the replacement is read and validated; a failed load leaves
// the current model serving and increments the failure counter.
func (h *Handler) Reload() (ReloadResponse, error) {
	h.reloadMu.Lock()
	defer h.reloadMu.Unlock()
	if h.reloader == nil {
		return ReloadResponse{}, fmt.Errorf("serve: no reloader configured")
	}
	insp, err := h.reloader()
	if err != nil {
		h.loadFailures.Inc()
		return ReloadResponse{}, fmt.Errorf("serve: reload: %w", err)
	}
	return ReloadResponse{
		Generation: int(h.applySwap(insp)),
		Params:     insp.Agent.Policy.NumParams(),
	}, nil
}

// reload is the POST /v1/admin/reload route.
func (h *Handler) reload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	h.reloadMu.Lock()
	configured := h.reloader != nil
	h.reloadMu.Unlock()
	if !configured {
		http.Error(w, "model reload not configured", http.StatusNotImplemented)
		return
	}
	resp, err := h.Reload()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
