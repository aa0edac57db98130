package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// replayBody is a request body that can be rewound, so the allocation gate
// measures the handler and not the construction of a request.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// discardWriter is the cheapest http.ResponseWriter: it keeps the status and
// drops the bytes.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// raceBuild is set by race_test.go when the race detector is compiled in.
var raceBuild bool

// TestInspectAllocsPerOp gates the allocations of one warm /v1/inspect
// through Handler.ServeHTTP: independent of queue depth (the body, the
// decoded queue and the response live in pooled scratch, the decision is
// recorded from the inspector's own scratch) and at most 3 — net/http-facing
// plumbing, not the codec or the decision.
func TestInspectAllocsPerOp(t *testing.T) {
	const maxAllocs = 3
	if raceBuild {
		t.Skip("under -race sync.Pool drops a quarter of its Puts, so a warm request re-allocates its scratch")
	}
	for _, depth := range []int{0, 128} {
		h := testHandler(t)
		body := benchShapedBody(9, depth)
		rb := &replayBody{}
		r := httptest.NewRequest(http.MethodPost, "/v1/inspect", nil)
		r.Body = rb
		w := &discardWriter{h: make(http.Header)}
		serve := func() {
			rb.Reset(body)
			w.code = http.StatusOK
			h.ServeHTTP(w, r)
			if w.code != http.StatusOK {
				t.Fatalf("status %d", w.code)
			}
		}
		for i := 0; i < 8; i++ { // warm the pool and every lazily built buffer
			serve()
		}
		if got := testing.AllocsPerRun(200, serve); got > maxAllocs {
			t.Errorf("depth %d: %.1f allocs per /v1/inspect, gate is %d", depth, got, maxAllocs)
		} else {
			t.Logf("depth %d: %.1f allocs per /v1/inspect", depth, got)
		}
		if v := h.fallbacks.Value(); v != 0 {
			t.Errorf("depth %d: %v requests fell back to encoding/json", depth, v)
		}
		h.Close()
	}
}
