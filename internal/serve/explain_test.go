package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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
		writeJSON(want, ExplainLastResponse{
			Total:        uint64(h.decSeq.Load()),
			FeatureNames: h.ring.FeatureNames(),
			Records:      h.ring.LastDecisions(n),
		})
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

func TestSwapRefreshesExplainMeta(t *testing.T) {
	h := testHandler(t)
	tr := workload.SDSCSP2Like(500, 3)
	repl := core.NewInspector(rand.New(rand.NewSource(2)), core.CompactedFeatures,
		core.NormalizerForTrace(tr, metrics.BSLD), nil)
	h.Swap(repl)
	var resp ExplainLastResponse
	rec := getExplain(t, h, "")
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.FeatureNames) != core.CompactedFeatures.Dim() {
		t.Errorf("after swap: %d feature names, want %d", len(resp.FeatureNames), core.CompactedFeatures.Dim())
	}
}

func TestRotatingWriter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.jsonl")
	w, err := NewRotatingWriter(path, 34)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	line := []byte("0123456789\n") // 11 bytes
	for i := 0; i < 5; i++ {
		if _, err := w.Write(line); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	// 3 lines fit under 34 bytes; the 4th write rotates. Current file holds
	// lines 4-5, the .1 generation holds 1-3.
	cur, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(path + ".1")
	if err != nil {
		t.Fatal(err)
	}
	if len(cur) != 2*len(line) {
		t.Errorf("current file %d bytes, want %d", len(cur), 2*len(line))
	}
	if len(prev) != 3*len(line) {
		t.Errorf("rotated file %d bytes, want %d", len(prev), 3*len(line))
	}
}

func TestRotatingWriterOversizedWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.jsonl")
	w, err := NewRotatingWriter(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	big := []byte("this single line exceeds the bound\n")
	if _, err := w.Write([]byte("ab")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(big); err != nil {
		t.Fatal(err)
	}
	cur, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(cur) != string(big) {
		t.Errorf("oversized write split across rotation: %q", cur)
	}
}

func TestRotatingWriterUnbounded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.jsonl")
	w, err := NewRotatingWriter(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 100; i++ {
		if _, err := w.Write([]byte("xxxxxxxxxx\n")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path + ".1"); !os.IsNotExist(err) {
		t.Errorf("maxBytes=0 must never rotate, found %s.1", path)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 100*11 {
		t.Errorf("file size %d, want 1100", st.Size())
	}
}

func TestRotatingWriterClosed(t *testing.T) {
	dir := t.TempDir()
	w, err := NewRotatingWriter(filepath.Join(dir, "a.log"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Error("write after Close should fail")
	}
	if err := w.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}
