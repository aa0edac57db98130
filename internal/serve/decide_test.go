package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"schedinspector/internal/ckpt"
	"schedinspector/internal/core"
	"schedinspector/internal/metrics"
	"schedinspector/internal/obs"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

// equivInspector builds a deterministic inspector: the same seed yields
// identical weights AND an identical sampling stream, so two instances can
// serve as the served model and its scalar reference.
func equivInspector(seed int64, mode core.FeatureMode) *core.Inspector {
	tr := workload.SDSCSP2Like(500, 3)
	return core.NewInspector(rand.New(rand.NewSource(seed)), mode,
		core.NormalizerForTrace(tr, metrics.BSLD))
}

// waveRequest varies the scheduling context per index so a run of requests
// exercises distinct feature vectors.
func waveRequest(i int) InspectRequest {
	var req InspectRequest
	req.Job.Wait = 30 + float64(i%11)*45
	req.Job.Est = 300 + float64(i%7)*700
	req.Job.Procs = 1 + i%24
	req.Rejections = i % 4
	req.FreeProcs = (i * 13) % 129
	req.TotalProcs = 128
	req.BackfillEnabled = i%2 == 0
	req.BackfillCount = i % 3
	for q := 0; q < i%5; q++ {
		req.Queue = append(req.Queue, QueueItem{
			Wait: float64(10 * (q + 1)), Est: float64(100 * (q + 1)), Procs: q + 1,
		})
	}
	return req
}

func waveState(req *InspectRequest) *sim.State {
	queue := make([]sim.QueueItem, 0, len(req.Queue))
	for _, q := range req.Queue {
		queue = append(queue, sim.QueueItem{Wait: q.Wait, Est: q.Est, Procs: q.Procs})
	}
	return sim.NewState(workload.Job{Est: req.Job.Est, Procs: req.Job.Procs},
		req.Job.Wait, req.Rejections, req.FreeProcs, req.TotalProcs,
		req.BackfillEnabled, req.BackfillCount, queue)
}

// TestWaveEquivScalar is the concurrent-vs-sequential golden test (the name
// is from the wave collector the lock replaced): N requests posted at once
// are decided one at a time in lock order, which is the ring's Seq order,
// and must produce exactly what N sequential Explain calls in that order
// produce on a twin inspector with the same seed — features, logits and
// probabilities bit for bit, the sampled actions, the RNG stream they
// consumed, and the response bytes.
func TestWaveEquivScalar(t *testing.T) {
	for _, n := range []int{1, 7, 64} {
		t.Run(strconv.Itoa(n), func(t *testing.T) {
			h := NewHandler(equivInspector(5, core.ManualFeatures))
			defer h.Close()
			ref := equivInspector(5, core.ManualFeatures)

			// waveRequest(i) is the only request with its (wait, est) for i < 77.
			type key struct{ wait, est float64 }
			reqs := make([]InspectRequest, n)
			bodies := make([]string, n)
			owner := make(map[key]int, n)
			var wg sync.WaitGroup
			for i := range reqs {
				reqs[i] = waveRequest(i)
				owner[key{reqs[i].Job.Wait, reqs[i].Job.Est}] = i
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					rec := postInspect(t, h, reqs[i])
					if rec.Code != http.StatusOK {
						t.Errorf("request %d: status %d: %s", i, rec.Code, rec.Body)
					}
					bodies[i] = rec.Body.String()
				}(i)
			}
			wg.Wait()

			_, recs := h.ring.LastDecisions(n)
			if len(recs) != n {
				t.Fatalf("recorded %d explain records, want %d", len(recs), n)
			}
			for k, rec := range recs {
				i, ok := owner[key{rec.Wait, rec.Est}]
				if !ok || rec.Seq != k {
					t.Fatalf("record %d: seq %d, wait %v est %v belongs to no request", k, rec.Seq, rec.Wait, rec.Est)
				}
				delete(owner, key{rec.Wait, rec.Est})
				action, feat, logits, probs := ref.Explain(waveState(&reqs[i]), false)
				if !bitsEqual(rec.Features, feat) || !bitsEqual(rec.Logits, logits) ||
					!bitsEqual(rec.Probs, probs) || rec.Action != action {
					t.Fatalf("record %d (request %d) diverges from scalar:\nserved %+v\nscalar action=%d feat=%v logits=%v probs=%v",
						k, i, rec, action, feat, logits, probs)
				}
				want, err := json.Marshal(InspectResponse{
					Reject:     action == core.ActionReject,
					RejectProb: probs[core.ActionReject],
				})
				if err != nil {
					t.Fatal(err)
				}
				if bodies[i] != string(want)+"\n" {
					t.Fatalf("request %d: body %q, scalar predicts %q", i, bodies[i], want)
				}
			}
		})
	}
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestInspectEquivScalarHTTP pins byte-identical responses at the HTTP
// boundary: sequential requests must produce exactly the JSON bodies a
// scalar reference inspector predicts.
func TestInspectEquivScalarHTTP(t *testing.T) {
	h := NewHandler(equivInspector(11, core.ManualFeatures))
	defer h.Close()
	ref := equivInspector(11, core.ManualFeatures)

	for i := 0; i < 25; i++ {
		req := waveRequest(i)
		rec := postInspect(t, h, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
		action, _, _, probs := ref.Explain(waveState(&req), false)
		want, err := json.Marshal(InspectResponse{
			Reject:     action == core.ActionReject,
			RejectProb: probs[core.ActionReject],
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.String(); got != string(want)+"\n" {
			t.Fatalf("request %d: body %q, scalar predicts %q", i, got, want)
		}
	}
}

// TestReloadMetaTearRegression reloads across feature modes (8-feature
// manual vs 5-feature compacted) while clients hammer /v1/inspect, then
// walks the ring's .ftrace sink stream in order: every decision record must
// carry as many features as the most recent preceding header names. Before
// swaps were serialized against decisions, Swap updated the recorder meta
// after publishing the model, so a concurrent decision could land an
// 8-feature record under a 5-feature header (and vice versa). Run under
// -race by the Makefile race target.
func TestReloadMetaTearRegression(t *testing.T) {
	manual := equivInspector(1, core.ManualFeatures)
	compact := equivInspector(2, core.CompactedFeatures)
	h := NewHandler(manual)
	defer h.Close()
	var sink bytes.Buffer
	h.ring.SetSink(&sink)

	const clients = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if rec := postInspect(t, h, waveRequest(c*31+i)); rec.Code != http.StatusOK {
					t.Errorf("inspect status %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}(c)
	}
	for h.decSeq.Load() == 0 {
		runtime.Gosched() // swaps against an idle handler prove nothing
	}
	for i := 0; i < 50; i++ {
		if i%2 == 0 {
			h.Swap(compact)
		} else {
			h.Swap(manual)
		}
	}
	close(stop)
	wg.Wait()
	if err := h.ring.Flush(); err != nil {
		t.Fatal(err)
	}

	headers, decisions, curFeatures := 0, 0, -1
	walkFTrace(t, sink.Bytes(), func(kind byte, body []byte) {
		switch kind {
		case obs.FTraceKindHeader:
			hdr, err := obs.DecodeFTraceHeader(body)
			if err != nil {
				t.Fatal(err)
			}
			curFeatures = len(hdr.Features)
			headers++
		case obs.FTraceKindDecision:
			dec, err := obs.DecodeFTraceDecision(body)
			if err != nil {
				t.Fatal(err)
			}
			if len(dec.Features) != curFeatures {
				t.Fatalf("decision %d carries %d features under a %d-feature header",
					decisions, len(dec.Features), curFeatures)
			}
			decisions++
		}
	})
	if headers < 2 {
		t.Errorf("stream holds %d headers across 50 mode-changing swaps, want >= 2", headers)
	}
	if decisions == 0 {
		t.Error("no decisions recorded under load")
	}

	page := metricsPage(t, h)
	if !strings.Contains(page, "schedinspector_model_reloads_total 50") {
		t.Errorf("swap count: %s", pageLine(page, "schedinspector_model_reloads_total"))
	}
}

// walkFTrace visits the records of a complete .ftrace stream in stream
// order: ckpt frames of version obs.FTraceVersion, each payload a run of
// records split by obs.FTraceRecordAt.
func walkFTrace(t *testing.T, img []byte, visit func(kind byte, body []byte)) {
	t.Helper()
	for r := bytes.NewReader(img); r.Len() > 0; {
		version, payload, err := ckpt.ReadFrame(r, obs.MaxFTraceSegment)
		if err != nil || version != obs.FTraceVersion {
			t.Fatalf("frame version %d: %v", version, err)
		}
		for o := 0; o < len(payload); {
			kind, body, next, err := obs.FTraceRecordAt(payload, o)
			if err != nil {
				t.Fatal(err)
			}
			visit(kind, body)
			o = next
		}
	}
}

// failAfterWriter accepts the first ok writes, then fails forever —
// a flight sink tearing mid-stream (disk full, closed pipe).
type failAfterWriter struct {
	mu sync.Mutex
	ok int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ok <= 0 {
		return 0, errors.New("flight sink torn")
	}
	w.ok--
	return len(p), nil
}

// TestFlightSinkFailureMidStream: when the flight sink starts failing
// mid-stream, decisions keep serving, the first error sticks and is counted
// once, and the ring keeps every decision.
func TestFlightSinkFailureMidStream(t *testing.T) {
	h := testHandler(t)
	defer h.Close()
	h.ring.SetSink(&failAfterWriter{ok: 1}) // one frame, then failures

	const n = 600 // past segFlushBytes several times over
	for i := 0; i < n; i++ {
		if rec := postInspect(t, h, validRequest()); rec.Code != http.StatusOK {
			t.Fatalf("inspect %d failed once the flight sink tore: status %d", i, rec.Code)
		}
	}
	if h.ring.SinkErr() == nil {
		t.Fatal("the torn sink reported no error")
	}
	page := metricsPage(t, h)
	if want := "schedinspector_ftrace_sink_errors_total 1"; !strings.Contains(page, want) {
		t.Errorf("want %q, got %s", want, pageLine(page, "schedinspector_ftrace_sink_errors_total"))
	}
	if !strings.Contains(page, `schedinspector_http_requests_total{code="200",route="/v1/inspect"} 600`) {
		t.Errorf("request counter: %s", pageLine(page, "schedinspector_http_requests_total"))
	}
	if _, recs := h.ring.LastDecisions(n); len(recs) != n {
		t.Errorf("ring holds %d decisions, want %d", len(recs), n)
	}
}

// flushRecorder is an httptest.ResponseRecorder that counts Flush calls.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushRecorder) Flush() { f.flushes++ }

// TestStatusWriterForwardsFlusher pins that instrumenting a route does not
// strip http.Flusher from the response writer.
func TestStatusWriterForwardsFlusher(t *testing.T) {
	sw := &statusWriter{ResponseWriter: &flushRecorder{ResponseRecorder: httptest.NewRecorder()}}
	fl, ok := interface{}(sw).(http.Flusher)
	if !ok {
		t.Fatal("statusWriter does not implement http.Flusher")
	}
	fl.Flush()
	if got := sw.ResponseWriter.(*flushRecorder).flushes; got != 1 {
		t.Errorf("underlying Flush called %d times, want 1", got)
	}
	if sw.Unwrap() != sw.ResponseWriter {
		t.Error("Unwrap does not return the wrapped writer")
	}
	// A non-Flusher underlying writer must not panic.
	plain := &statusWriter{ResponseWriter: httptest.NewRecorder()}
	// httptest.ResponseRecorder implements Flush; wrap it to hide it.
	type bare struct{ http.ResponseWriter }
	plain.ResponseWriter = bare{httptest.NewRecorder()}
	plain.Flush()
}

// TestCloseDrainsAndRejects pins shutdown: Close is idempotent, a request
// racing it is either answered and recorded or refused with 503 — never
// lost — later requests answer 503, and a post-Close Swap still applies.
func TestCloseDrainsAndRejects(t *testing.T) {
	a, b := reloadPair(t)
	h := NewHandler(a)
	const clients, perClient = 8, 50
	var answered, refused atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				switch rec := postInspect(t, h, validRequest()); rec.Code {
				case http.StatusOK:
					answered.Add(1)
				case http.StatusServiceUnavailable:
					refused.Add(1)
				default:
					t.Errorf("status %d: %s", rec.Code, rec.Body)
				}
			}
		}()
	}
	for h.decSeq.Load() == 0 {
		runtime.Gosched() // closing an idle handler proves nothing
	}
	h.Close()
	h.Close() // idempotent
	wg.Wait()
	if got := answered.Load() + refused.Load(); got != clients*perClient {
		t.Errorf("%d answered + %d refused, sent %d", answered.Load(), refused.Load(), clients*perClient)
	}
	if got := h.decSeq.Load(); got != answered.Load() {
		t.Errorf("%d decisions recorded, %d verdicts answered", got, answered.Load())
	}
	if rec := postInspect(t, h, validRequest()); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-close inspect status %d, want 503", rec.Code)
	}
	h.Swap(b)
	page := metricsPage(t, h)
	if !strings.Contains(page, "schedinspector_model_generation 2") {
		t.Errorf("post-close swap not applied: %s", pageLine(page, "schedinspector_model_generation"))
	}
}

// TestWaveMetricsUnderLoad is the pile-up test (the name is from the wave
// queue the lock replaced): with the model lock held, maxWaiting requests
// wait — schedinspector_inspect_queue_depth counts them — and the k sent
// past that are answered 429 at once and counted in shed_total; releasing
// the lock answers every waiter and the depth returns to 0.
func TestWaveMetricsUnderLoad(t *testing.T) {
	h := testHandler(t)
	defer h.Close()
	const k = 5
	codes := make(chan int, maxWaiting+k)
	post := func() { codes <- postInspect(t, h, validRequest()).Code }

	h.mu.Lock()
	for i := 0; i < maxWaiting; i++ {
		go post()
	}
	for h.waiting.Load() < maxWaiting {
		runtime.Gosched()
	}
	page := metricsPage(t, h)
	if v := metricValue(t, page, "schedinspector_inspect_queue_depth", ""); v != maxWaiting {
		t.Errorf("queue_depth %v with %d requests waiting", v, maxWaiting)
	}
	if v := metricValue(t, page, "schedinspector_inspect_queue_capacity", ""); v != maxWaiting {
		t.Errorf("queue_capacity %v, want %d", v, maxWaiting)
	}
	for i := 0; i < k; i++ {
		post() // returns without the lock
	}
	h.mu.Unlock()

	got := map[int]int{}
	for i := 0; i < maxWaiting+k; i++ {
		got[<-codes]++
	}
	if got[http.StatusTooManyRequests] != k || got[http.StatusOK] != maxWaiting {
		t.Errorf("status counts %v, want %d x 200 and %d x 429", got, maxWaiting, k)
	}
	page = metricsPage(t, h)
	if v := metricValue(t, page, "schedinspector_inspect_queue_depth", ""); v != 0 {
		t.Errorf("queue_depth %v after the pile-up drained", v)
	}
	if v := metricValue(t, page, "schedinspector_inspect_shed_total", ""); v != k {
		t.Errorf("shed_total %v, want %d", v, k)
	}
	if v := metricValue(t, page, "schedinspector_inspect_coalesce_seconds_count", ""); v != maxWaiting {
		t.Errorf("%v lock waits observed, want %d", v, maxWaiting)
	}
	if v := h.decSeq.Load(); v != maxWaiting {
		t.Errorf("%d decisions recorded, want %d (a shed request records nothing)", v, maxWaiting)
	}
}

// TestCancelledRequestDrawsNothing: a request whose client left while it
// waited for the lock is counted under 499, consumes no draw from the
// sampling stream and writes no record, so the requests around it get
// exactly the verdicts an undisturbed twin predicts.
func TestCancelledRequestDrawsNothing(t *testing.T) {
	h := NewHandler(equivInspector(7, core.ManualFeatures))
	defer h.Close()
	ref := equivInspector(7, core.ManualFeatures)

	served := 0
	for i := 0; i < 20; i++ {
		req := waveRequest(i)
		if i%3 == 1 {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			var buf bytes.Buffer
			json.NewEncoder(&buf).Encode(req)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/inspect", &buf).WithContext(ctx))
			if rec.Code != statusClientClosed {
				t.Fatalf("request %d: cancelled request answered %d", i, rec.Code)
			}
			continue
		}
		rec := postInspect(t, h, req)
		served++
		action, _, _, probs := ref.Explain(waveState(&req), false)
		want, _ := json.Marshal(InspectResponse{Reject: action == core.ActionReject, RejectProb: probs[core.ActionReject]})
		if got := rec.Body.String(); rec.Code != http.StatusOK || got != string(want)+"\n" {
			t.Fatalf("request %d: %d %q, undisturbed twin predicts %q", i, rec.Code, got, want)
		}
	}
	if got := h.decSeq.Load(); got != int64(served) {
		t.Errorf("%d decisions recorded, %d served", got, served)
	}
	page := metricsPage(t, h)
	if v := metricValue(t, page, "schedinspector_http_requests_total", `{code="499",route="/v1/inspect"}`); v != float64(20-served) {
		t.Errorf("499 counter %v, want %d", v, 20-served)
	}
}
