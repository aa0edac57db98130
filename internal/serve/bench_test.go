package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"schedinspector/internal/core"
	"schedinspector/internal/metrics"
	"schedinspector/internal/workload"
)

// Serving-throughput benchmarks: /v1/inspect through Handler.ServeHTTP at 1,
// 64 and 512 concurrent clients. Each reports decisions/s and the p99
// request latency alongside the standard ns/op. They are developer
// microbenchmarks; the serving numbers of record come from bench/ over a
// real socket.

func benchInspector() *core.Inspector {
	tr := workload.SDSCSP2Like(500, 3)
	return core.NewInspector(rand.New(rand.NewSource(17)), core.ManualFeatures,
		core.NormalizerForTrace(tr, metrics.BSLD), nil)
}

// benchInspect drives b.N requests through a handler from the given number
// of concurrent clients, reporting decisions/s and p99 request latency.
func benchInspect(b *testing.B, clients int) {
	b.Helper()
	target := NewHandler(benchInspector())
	defer target.Close()
	body, err := json.Marshal(validRequest())
	if err != nil {
		b.Fatal(err)
	}
	if clients > b.N {
		clients = b.N
	}
	lat := make([][]int64, clients)
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for c := 0; c < clients; c++ {
		n := b.N / clients
		if c < b.N%clients {
			n++
		}
		wg.Add(1)
		go func(c, n int) {
			defer wg.Done()
			ls := make([]int64, 0, n)
			for i := 0; i < n; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/inspect", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				t0 := time.Now()
				target.ServeHTTP(rec, req)
				ls = append(ls, time.Since(t0).Nanoseconds())
				if rec.Code != http.StatusOK {
					b.Errorf("status %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
			lat[c] = ls
		}(c, n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	all := make([]int64, 0, b.N)
	for _, ls := range lat {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) > 0 {
		b.ReportMetric(float64(all[(len(all)-1)*99/100]), "p99-ns")
	}
	if s := elapsed.Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "decisions/s")
	}
}

func BenchmarkInspectC1(b *testing.B)   { benchInspect(b, 1) }
func BenchmarkInspectC64(b *testing.B)  { benchInspect(b, 64) }
func BenchmarkInspectC512(b *testing.B) { benchInspect(b, 512) }

// Decoder benchmarks: the single-pass decoder against encoding/json — the
// fallback, and once the route's only decoder — on the two body shapes the
// repository's benchmark sends: shallow (queue depth 4, ~0.3 KB) and deep
// (depth 160, ~6 KB). Their estimates are 16-17-digit shortest renderings,
// scanner.float's integer-division regime; FastDeepShort is the deep
// body with estimates like 3600.5, the float-division regime. All decode into
// a reused request, as the pooled handler does.
func benchDecode(b *testing.B, body []byte, fast bool) {
	var req InspectRequest
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if fast {
			err = DecodeInspect(body, &req)
		} else {
			err = decodeStd(body, nil, &req)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// shortDecimalBody is benchShapedBody with every estimate cut to one decimal.
func shortDecimalBody(depth int) []byte {
	var r InspectRequest
	if err := json.Unmarshal(benchShapedBody(1, depth), &r); err != nil {
		panic(err)
	}
	r.Job.Est = math.Round(r.Job.Est*10) / 10
	for i := range r.Queue {
		r.Queue[i].Est = math.Round(r.Queue[i].Est*10) / 10
	}
	body, err := json.Marshal(&r)
	if err != nil {
		panic(err)
	}
	return body
}

func BenchmarkDecodeInspectFastShallow(b *testing.B)   { benchDecode(b, benchShapedBody(1, 4), true) }
func BenchmarkDecodeInspectFastDeep(b *testing.B)      { benchDecode(b, benchShapedBody(1, 160), true) }
func BenchmarkDecodeInspectFastDeepShort(b *testing.B) { benchDecode(b, shortDecimalBody(160), true) }
func BenchmarkDecodeInspectStdShallow(b *testing.B)    { benchDecode(b, benchShapedBody(1, 4), false) }
func BenchmarkDecodeInspectStdDeep(b *testing.B)       { benchDecode(b, benchShapedBody(1, 160), false) }

// BenchmarkSimulate is one /v1/simulate what-if the way the repository's
// benchmark sends it — 128 trace jobs, SJF, the stochastic inspector —
// through Handler.ServeHTTP: decode, 128 jobs' worth of simulation with a
// forward per inspection, encode.
func BenchmarkSimulate(b *testing.B) {
	h := NewHandler(benchInspector())
	defer h.Close()
	body := benchShapedSimBody(1, 128)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkMetricsScrape is one GET /metrics, through Handler.ServeHTTP, of
// a handler that has served inspect, simulate and error traffic.
func BenchmarkMetricsScrape(b *testing.B) {
	h := NewHandler(benchInspector())
	defer h.Close()
	body, err := json.Marshal(validRequest())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/inspect", bytes.NewReader(body)))
	}
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/inspect", bytes.NewReader([]byte("{"))))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(benchShapedSimBody(1, 8))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkTraceSnapshotJSONL is one warm GET /v1/trace/snapshot (JSONL)
// through Handler.ServeHTTP into a discarding ResponseWriter: a full
// manual-mode ring with 376 new decisions since the last snapshot, the gap
// serve-mixed lands between two (untimed emits of served records).
// BenchmarkAppendJSONL{Cold,Warm376} in internal/explain time the rendered
// window alone.
func BenchmarkTraceSnapshotJSONL(b *testing.B) {
	h := NewHandler(benchInspector())
	defer h.Close()
	for i := 0; i < h.ring.Cap(); i++ {
		body, err := json.Marshal(waveRequest(i))
		if err != nil {
			b.Fatal(err)
		}
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/inspect", bytes.NewReader(body)))
	}
	_, fresh := h.ring.LastDecisions(376)
	req := httptest.NewRequest(http.MethodGet, "/v1/trace/snapshot", nil)
	w := &discardWriter{h: make(http.Header)}
	h.ServeHTTP(w, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := range fresh {
			h.ring.EmitDecision(&fresh[k])
		}
		b.StartTimer()
		w.code = http.StatusOK
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
}
