package obs_test

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"schedinspector/internal/core"
	"schedinspector/internal/metrics"
	"schedinspector/internal/obs"
	"schedinspector/internal/serve"
	"schedinspector/internal/workload"
)

// TestWritePromMatchesFmt renders a populated serving registry — every
// inspectord series after a mix of requests, plus gauges at the values %g
// spells in each of its forms and help and label text that needs escaping —
// through the live append renderer and through the fmt renderer it
// replaced: the pages must be byte-identical.
func TestWritePromMatchesFmt(t *testing.T) {
	tr := workload.SDSCSP2Like(500, 3)
	h := serve.NewHandler(core.NewInspector(rand.New(rand.NewSource(1)), core.ManualFeatures,
		core.NormalizerForTrace(tr, metrics.BSLD)))
	defer h.Close()
	for i, c := range []struct{ method, path, body string }{
		{"POST", "/v1/inspect", `{"job":{"wait":120,"est":3600,"procs":16},"free_procs":32,"total_procs":128,"queue":[{"wait":60,"est":600,"procs":4}]}`},
		{"POST", "/v1/inspect", `{"job":{"wait":1.5,"est":77.25,"procs":1},"free_procs":0,"total_procs":8}`},
		{"POST", "/v1/inspect", `{"Job":{"wait":1,"est":2,"procs":3},"total_procs":4}`},
		{"POST", "/v1/inspect", `{not json`},
		{"GET", "/v1/inspect", ``},
		{"POST", "/v1/simulate", `{"max_procs":64,"jobs":[{"submit":0,"run":600,"est":900,"procs":48},{"submit":10,"run":300,"est":400,"procs":32}]}`},
		{"GET", "/v1/info", ``},
		{"GET", "/v1/explain/last?n=2", ``},
	} {
		for k := 0; k <= i; k++ {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		}
	}
	reg := h.Registry()
	for i, v := range []float64{0, math.Copysign(0, -1), 1, -2.5, 1e21, 1e-7, 123456789, 0.1 + 0.2,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		reg.Gauge("test_edge_value", "Edge values of %g.", obs.Labels{"i": string(rune('a' + i))}).Set(v)
	}
	reg.Counter("test_escaped_total", "Help with a \\ backslash\nand a newline.",
		obs.Labels{"path": `C:\dir "quoted"` + "\nline", "z": "é"}).Add(3)
	reg.GaugeFunc("test_func", "", nil, func() float64 { return 2.75 })
	hist := reg.Histogram("test_hist_seconds", "Histogram help.", []float64{-1, 0, 1e-9, 0.5, 1e9},
		obs.Labels{"route": "/x"})
	for _, v := range []float64{-3, 0, 0.25, 7, 1e10} {
		hist.Observe(v)
	}
	reg.Histogram("test_empty_hist", "", nil, nil)

	var got, want bytes.Buffer
	if err := reg.WriteProm(&got); err != nil {
		t.Fatal(err)
	}
	if err := obs.WritePromFmt(reg, &want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		g, w := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("line %d:\nappend %q\nfmt    %q", i+1, g[i], w[i])
			}
		}
		t.Fatalf("pages differ in length: %d lines vs %d", len(g), len(w))
	}
	for _, s := range []string{"schedinspector_http_requests_total", `le="+Inf"`, "NaN", "-Inf", "1e+21", "test_escaped_total"} {
		if !strings.Contains(got.String(), s) {
			t.Errorf("page lacks %q; the registry is not populated as intended", s)
		}
	}

	// The /metrics route serves the same page.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Body.String() != got.String() {
		t.Error("/metrics differs from WriteProm")
	}
}
