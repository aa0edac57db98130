package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"schedinspector/internal/core"
	"schedinspector/internal/metrics"
	"schedinspector/internal/obs"
	"schedinspector/internal/workload"
)

func getExplain(t *testing.T, h http.Handler, query string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/explain/last"+query, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestExplainLastEmpty(t *testing.T) {
	h := testHandler(t)
	rec := getExplain(t, h, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp ExplainLastResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Total != 0 || len(resp.Records) != 0 {
		t.Errorf("fresh handler: total %d, %d records", resp.Total, len(resp.Records))
	}
	if resp.Records == nil {
		t.Error("records should serialize as [], not null")
	}
	if len(resp.FeatureNames) != core.ManualFeatures.Dim() {
		t.Errorf("feature names %v, want %d manual names", resp.FeatureNames, core.ManualFeatures.Dim())
	}
}

func TestExplainLastAfterInspects(t *testing.T) {
	h := testHandler(t)
	const n = 5
	for i := 0; i < n; i++ {
		if rec := postInspect(t, h, validRequest()); rec.Code != http.StatusOK {
			t.Fatalf("inspect %d: status %d", i, rec.Code)
		}
	}
	rec := getExplain(t, h, "?n=3")
	var resp ExplainLastResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Total != n {
		t.Errorf("total %d, want %d", resp.Total, n)
	}
	if len(resp.Records) != 3 {
		t.Fatalf("got %d records, want 3", len(resp.Records))
	}
	// Records come back oldest-first; the seq counter pins the order.
	for i, r := range resp.Records {
		if want := n - 3 + i; r.Seq != want {
			t.Errorf("record %d: seq %d, want %d", i, r.Seq, want)
		}
		if len(r.Features) != core.ManualFeatures.Dim() {
			t.Errorf("record %d: %d features", i, len(r.Features))
		}
		if len(r.Probs) != 2 || len(r.Logits) != 2 {
			t.Errorf("record %d: logits/probs lengths %d/%d", i, len(r.Logits), len(r.Probs))
		}
		if !r.Sampled {
			t.Errorf("record %d: served decisions are sampled", i)
		}
		if r.Rejected != (r.Action == core.ActionReject) {
			t.Errorf("record %d: rejected flag disagrees with action", i)
		}
		if r.JobID != 0 || r.Wait != 120 || r.Procs != 16 {
			t.Errorf("record %d: job fields %d/%v/%d", i, r.JobID, r.Wait, r.Procs)
		}
		if r.QueueLen != 2 { // the job under inspection plus one queued peer
			t.Errorf("record %d: queue len %d", i, r.QueueLen)
		}
	}
}

func TestExplainLastValidation(t *testing.T) {
	h := testHandler(t)
	if rec := getExplain(t, h, "?n=0"); rec.Code != http.StatusBadRequest {
		t.Errorf("n=0: status %d, want 400", rec.Code)
	}
	if rec := getExplain(t, h, "?n=-2"); rec.Code != http.StatusBadRequest {
		t.Errorf("n=-2: status %d, want 400", rec.Code)
	}
	if rec := getExplain(t, h, "?n=bogus"); rec.Code != http.StatusBadRequest {
		t.Errorf("n=bogus: status %d, want 400", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/explain/last", strings.NewReader("{}"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST: status %d, want 405", rec.Code)
	}
}

// TestExplainLastMatchesEncodingJSON pins the hand-written body of GET
// /v1/explain/last to what json.NewEncoder(w).Encode wrote for the same
// response: byte for byte from an empty ring, at n 1, 32 and 4096 over a
// full manual-mode ring, and for a native-mode (102-feature) model; and the
// same empty 200 when a record holds a float JSON cannot carry.
func TestExplainLastMatchesEncodingJSON(t *testing.T) {
	check := func(t *testing.T, h *Handler, n int) {
		t.Helper()
		got := getExplain(t, h, "?n="+strconv.Itoa(n))
		want := httptest.NewRecorder()
		names, recs := h.ring.LastDecisions(n)
		writeJSON(want, ExplainLastResponse{Total: uint64(h.decSeq.Load()), FeatureNames: names, Records: recs})
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Fatalf("n=%d: status %d %q, encoding/json %d %q", n, got.Code, got.Header().Get("Content-Type"),
				want.Code, want.Header().Get("Content-Type"))
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("n=%d: body differs from encoding/json's:\n got %.300q\nwant %.300q", n, got.Body, want.Body)
		}
	}
	serve := func(t *testing.T, h *Handler, decisions int) {
		t.Helper()
		for i := 0; i < decisions; i++ {
			if rec := postInspect(t, h, waveRequest(i)); rec.Code != http.StatusOK {
				t.Fatalf("inspect %d: status %d: %s", i, rec.Code, rec.Body)
			}
		}
	}

	t.Run("empty", func(t *testing.T) {
		h := testHandler(t)
		defer h.Close()
		check(t, h, defaultExplainLast)
	})
	t.Run("manual", func(t *testing.T) {
		h := testHandler(t)
		defer h.Close()
		serve(t, h, h.ring.Cap()+4)
		for _, n := range []int{1, 32, 4096} {
			check(t, h, n)
		}
	})
	t.Run("native", func(t *testing.T) {
		h := NewHandler(equivInspector(1, core.NativeFeatures))
		defer h.Close()
		serve(t, h, 40)
		for _, n := range []int{1, 32} {
			check(t, h, n)
		}
	})
	t.Run("nonfinite", func(t *testing.T) {
		h := testHandler(t)
		defer h.Close()
		serve(t, h, 3)
		h.ring.EmitDecision(&obs.ExplainRecord{Features: []float64{1, math.Inf(-1)}, Probs: []float64{math.NaN()}})
		check(t, h, 1)
		check(t, h, 4)
	})
}

// TestSwapRefreshesExplainMeta: after a feature-mode-changing Swap,
// /v1/explain/last names the new mode's features and returns only the
// decisions made under it, so every record's features line up with the
// names — none of the k earlier 8-feature records under 5 compacted names.
func TestSwapRefreshesExplainMeta(t *testing.T) {
	h := testHandler(t)
	defer h.Close()
	const k = 5
	for i := 0; i < k; i++ {
		postInspect(t, h, waveRequest(i))
	}
	tr := workload.SDSCSP2Like(500, 3)
	repl := core.NewInspector(rand.New(rand.NewSource(2)), core.CompactedFeatures,
		core.NormalizerForTrace(tr, metrics.BSLD), nil)
	h.Swap(repl)
	for _, after := range []int{0, 3} {
		for i := 0; i < after; i++ {
			postInspect(t, h, waveRequest(k+i))
		}
		var resp ExplainLastResponse
		if err := json.Unmarshal(getExplain(t, h, "").Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.FeatureNames) != core.CompactedFeatures.Dim() || resp.Total != uint64(k+after) || len(resp.Records) != after {
			t.Fatalf("%d inspects after the swap: %d feature names, total %d, %d records; want %d, %d, %d",
				after, len(resp.FeatureNames), resp.Total, len(resp.Records), core.CompactedFeatures.Dim(), k+after, after)
		}
		for i, r := range resp.Records {
			if len(r.Features) != len(resp.FeatureNames) {
				t.Fatalf("record %d (seq %d): %d features under %d names", i, r.Seq, len(r.Features), len(resp.FeatureNames))
			}
		}
	}
}
