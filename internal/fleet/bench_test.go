package fleet

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"schedinspector/internal/obs"
)

func benchExposition(b *testing.B) []byte {
	b.Helper()
	var buf bytes.Buffer
	if err := buildBenchRegistry().WriteProm(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// buildBenchRegistry approximates a loaded inspectord exposition: a few
// dozen series across counters, gauges, and histograms.
func buildBenchRegistry() *obs.Registry {
	rng := rand.New(rand.NewSource(42))
	r := obs.NewRegistry()
	for _, route := range []string{"/v1/inspect", "/v1/simulate", "/v1/info", "/healthz"} {
		for _, code := range []string{"200", "400", "503"} {
			r.Counter("schedinspector_http_requests_total", "Requests.",
				obs.Labels{"route": route, "code": code}).Add(float64(rng.Intn(100000)))
		}
		h := r.Histogram("schedinspector_http_request_duration_seconds", "Latency.",
			obs.DefBuckets(), obs.Labels{"route": route})
		for i := 0; i < 500; i++ {
			h.Observe(rng.ExpFloat64() / 100)
		}
	}
	r.Counter("schedinspector_inspect_decisions_total", "", obs.Labels{"verdict": "accept"}).Add(5e6)
	r.Counter("schedinspector_inspect_decisions_total", "", obs.Labels{"verdict": "reject"}).Add(2e6)
	r.Gauge("schedinspector_inspect_queue_depth", "", nil).Set(17)
	r.Gauge("schedinspector_inspect_queue_capacity", "", nil).Set(1024)
	r.Gauge("schedinspector_model_generation", "", nil).Set(9)
	co := r.Histogram("schedinspector_inspect_coalesce_seconds", "",
		obs.ExponentialBuckets(1e-6, 4, 10), nil)
	for i := 0; i < 2000; i++ {
		co.Observe(rng.ExpFloat64() / 1000)
	}
	return r
}

// BenchmarkFleetParse measures ParseProm over a realistic exposition.
func BenchmarkFleetParse(b *testing.B) {
	src := benchExposition(b)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseProm(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetScrape measures one full scrape: HTTP round trip to a
// local server plus parse.
func BenchmarkFleetScrape(b *testing.B) {
	src := benchExposition(b)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write(src)
	}))
	defer srv.Close()
	var c Client
	ctx := context.Background()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Scrape(ctx, srv.URL); err != nil {
			b.Fatal(err)
		}
	}
}
