package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestDecodeFallbackCounter measures the split between the two decoders:
// canonical bodies never reach encoding/json, and a body only encoding/json
// understands (a case-variant key) is counted once and still answered.
func TestDecodeFallbackCounter(t *testing.T) {
	h := testHandler(t)
	defer h.Close()
	const name = "schedinspector_inspect_decode_fallback_total"
	if v := metricValue(t, scrape(t, h), name, ""); v != 0 {
		t.Fatalf("fallback counter starts at %v", v)
	}
	for i := 0; i < 10; i++ {
		if rec := postInspect(t, h, validRequest()); rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	if v := metricValue(t, scrape(t, h), name, ""); v != 0 {
		t.Errorf("%v of 10 canonical requests fell back", v)
	}
	rec := postInspect(t, h, `{"Job":{"wait":120,"est":3600,"procs":16},"free_procs":32,"total_procs":128}`)
	if rec.Code != http.StatusOK {
		t.Fatalf(`"Job"-keyed body: status %d: %s`, rec.Code, rec.Body)
	}
	if v := metricValue(t, scrape(t, h), name, ""); v != 1 {
		t.Errorf(`fallback counter %v after one "Job"-keyed body, want 1`, v)
	}
}

// TestRequestCountersExactUnderConcurrency: the 200 series is resolved when
// the route is registered (present at zero before any traffic) and other
// codes on first use; sixteen clients mixing outcomes must leave every
// series exact.
func TestRequestCountersExactUnderConcurrency(t *testing.T) {
	h := testHandler(t)
	defer h.Close()
	const series = "schedinspector_http_requests_total"
	if v := metricValue(t, scrape(t, h), series, `{code="200",route="/v1/inspect"}`); v != 0 {
		t.Fatalf("200 series starts at %v", v)
	}
	body, err := json.Marshal(validRequest())
	if err != nil {
		t.Fatal(err)
	}
	const clients, rounds = 16, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do := func(method, path string, body []byte, want int) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
				if rec.Code != want {
					t.Errorf("%s %s: status %d, want %d", method, path, rec.Code, want)
				}
			}
			for i := 0; i < rounds; i++ {
				do(http.MethodPost, "/v1/inspect", body, http.StatusOK)
				do(http.MethodPost, "/v1/inspect", body, http.StatusOK)
				do(http.MethodPost, "/v1/inspect", []byte("{not json"), http.StatusBadRequest)
				do(http.MethodGet, "/v1/inspect", nil, http.StatusMethodNotAllowed)
				do(http.MethodGet, "/v1/info", nil, http.StatusOK)
			}
		}()
	}
	wg.Wait()
	page := scrape(t, h)
	for labels, want := range map[string]float64{
		`{code="200",route="/v1/inspect"}`: 2 * clients * rounds,
		`{code="400",route="/v1/inspect"}`: clients * rounds,
		`{code="405",route="/v1/inspect"}`: clients * rounds,
		`{code="200",route="/v1/info"}`:    clients * rounds,
	} {
		if v := metricValue(t, page, series, labels); v != want {
			t.Errorf("%s%s = %v, want %v", series, labels, v, want)
		}
	}
	if n := strings.Count(page, series+`{code="200",route="/v1/inspect"}`); n != 1 {
		t.Errorf("the inspect 200 series renders %d times", n)
	}
}

// TestBodyBounds: a body at the route's bound is served, one byte past it is
// refused with 413. Both routes read the whole body, so whitespace after the
// value counts toward the bound.
func TestBodyBounds(t *testing.T) {
	h := testHandler(t)
	defer h.Close()
	padded := func(v any) func(size int) []byte {
		return func(size int) []byte {
			body, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			return append(body, bytes.Repeat([]byte{' '}, size-len(body))...)
		}
	}
	inspect, simulate := padded(validRequest()), padded(validSimRequest())
	for _, c := range []struct {
		path  string
		body  func(size int) []byte
		bound int
	}{
		{"/v1/inspect", inspect, maxInspectBody},
		{"/v1/simulate", simulate, maxSimulateBody},
	} {
		for _, over := range []int{0, 1} {
			body := c.body(c.bound + over)
			if len(body) != c.bound+over {
				t.Fatalf("%s: built %d bytes, want %d", c.path, len(body), c.bound+over)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(body)))
			want := http.StatusOK
			if over > 0 {
				want = http.StatusRequestEntityTooLarge
			}
			if rec.Code != want {
				t.Errorf("%s with %d bytes: status %d (%.60s), want %d", c.path, len(body), rec.Code, rec.Body, want)
			}
		}
	}
	page := scrape(t, h)
	for _, route := range []string{"/v1/inspect", "/v1/simulate"} {
		if v := metricValue(t, page, "schedinspector_http_requests_total", `{code="413",route="`+route+`"}`); v != 1 {
			t.Errorf("%s 413 counter %v", route, v)
		}
	}
	for _, name := range []string{"schedinspector_inspect_decode_fallback_total", "schedinspector_simulate_decode_fallback_total"} {
		if v := metricValue(t, page, name, ""); v != 0 {
			t.Errorf("%s: a refused body counted as %v encoding/json decodes", name, v)
		}
	}
}
