package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"schedinspector/internal/core"
	"schedinspector/internal/metrics"
	"schedinspector/internal/obs"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

// equivInspector builds a deterministic inspector: the same seed yields
// identical weights AND an identical sampling stream, so two instances can
// serve as a batched path and its scalar reference.
func equivInspector(seed int64, mode core.FeatureMode) *core.Inspector {
	tr := workload.SDSCSP2Like(500, 3)
	return core.NewInspector(rand.New(rand.NewSource(seed)), mode,
		core.NormalizerForTrace(tr, metrics.BSLD), nil)
}

// waveRequest varies the scheduling context per index so a wave exercises
// distinct feature vectors.
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

// TestWaveEquivScalar is the batched-vs-scalar golden test at the serving
// layer: a wave of N pending decisions answered by one processWave call
// must produce outcomes and explain records identical to N sequential
// scalar Explain calls on a reference inspector with the same seed —
// features, logits, probabilities, sampled actions, and the RNG stream
// they consumed.
func TestWaveEquivScalar(t *testing.T) {
	for _, waveSize := range []int{1, 7, DefaultMaxWave} {
		t.Run(strconv.Itoa(waveSize), func(t *testing.T) {
			h := NewHandlerOptions(equivInspector(5, core.ManualFeatures), Options{})
			h.Close() // stop the collector; the test drives waves by hand
			ref := equivInspector(5, core.ManualFeatures)

			wave := make([]*pendingDecision, waveSize)
			reqs := make([]InspectRequest, waveSize)
			for i := range wave {
				reqs[i] = waveRequest(i)
				wave[i] = &pendingDecision{
					req:   &reqs[i],
					state: waveState(&reqs[i]),
					done:  make(chan inspectOutcome, 1),
				}
			}
			states := make([]*sim.State, waveSize)
			outs := make([]core.ExplainOut, waveSize)
			h.processWave(wave, states, outs)

			recs := h.ring.LastDecisions(waveSize)
			if len(recs) != waveSize {
				t.Fatalf("recorded %d explain records, want %d", len(recs), waveSize)
			}
			for i, p := range wave {
				action, feat, logits, probs := ref.Explain(waveState(&reqs[i]), false)
				out := <-p.done
				wantReject := action == core.ActionReject
				if out.reject != wantReject || out.rejectProb != probs[core.ActionReject] {
					t.Fatalf("row %d: outcome (%v, %v), scalar (%v, %v)",
						i, out.reject, out.rejectProb, wantReject, probs[core.ActionReject])
				}
				rec := recs[i]
				if !reflect.DeepEqual(rec.Features, feat) ||
					!reflect.DeepEqual(rec.Logits, logits) ||
					!reflect.DeepEqual(rec.Probs, probs) || rec.Action != action {
					t.Fatalf("row %d: explain record diverges from scalar:\nbatch  %+v\nscalar action=%d feat=%v logits=%v probs=%v",
						i, rec, action, feat, logits, probs)
				}
				if rec.Seq != i {
					t.Errorf("row %d: seq %d", i, rec.Seq)
				}
			}
		})
	}
}

// TestInspectEquivScalarHTTP pins byte-identical responses at the HTTP
// boundary: sequential requests against the batched handler (every wave
// has size 1) must produce exactly the JSON bodies a scalar reference
// inspector predicts.
func TestInspectEquivScalarHTTP(t *testing.T) {
	h := NewHandlerOptions(equivInspector(11, core.ManualFeatures), Options{})
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
// swaps were serialized through the collector, Swap updated the recorder
// meta after publishing the model, so a concurrent decision could land an
// 8-feature record under a 5-feature header (and vice versa). Run under
// -race by the Makefile race target.
func TestReloadMetaTearRegression(t *testing.T) {
	manual := equivInspector(1, core.ManualFeatures)
	compact := equivInspector(2, core.CompactedFeatures)
	h := NewHandlerOptions(manual, Options{})
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
// order: 12-byte file header, then segments of u32 length + u32 CRC-32C +
// payload, each payload a run of u8 kind + u32 length + body (obs/ring.go).
func walkFTrace(t *testing.T, img []byte, visit func(kind byte, body []byte)) {
	t.Helper()
	if _, err := obs.ParseFTraceFileHeader(img); err != nil {
		t.Fatal(err)
	}
	for img = img[12:]; len(img) > 0; {
		seg := img[8 : 8+binary.LittleEndian.Uint32(img)]
		if obs.FTraceSegmentCRC(seg) != binary.LittleEndian.Uint32(img[4:]) {
			t.Fatal("segment CRC mismatch")
		}
		img = img[8+len(seg):]
		for len(seg) > 0 {
			body := seg[5 : 5+binary.LittleEndian.Uint32(seg[1:])]
			visit(seg[0], body)
			seg = seg[5+len(body):]
		}
	}
}

// failAfterWriter accepts the first ok writes, then fails forever —
// an audit sink tearing mid-stream (disk full, closed pipe).
type failAfterWriter struct {
	mu sync.Mutex
	ok int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ok <= 0 {
		return 0, errors.New("audit sink torn")
	}
	w.ok--
	return len(p), nil
}

// TestAuditWriteFailureMidStream pins satellite behavior: when the audit
// sink starts failing mid-stream, decisions keep serving and every dropped
// line is counted instead of vanishing silently.
func TestAuditWriteFailureMidStream(t *testing.T) {
	h := testHandler(t)
	defer h.Close()
	h.SetAuditSink(&failAfterWriter{ok: 3})

	const n = 10
	for i := 0; i < n; i++ {
		if rec := postInspect(t, h, validRequest()); rec.Code != http.StatusOK {
			t.Fatalf("inspect %d failed once the audit sink tore: status %d", i, rec.Code)
		}
	}
	page := metricsPage(t, h)
	if want := "schedinspector_audit_write_failures_total 7"; !strings.Contains(page, want) {
		t.Errorf("want %q (3 of %d lines written), got %s",
			want, n, pageLine(page, "schedinspector_audit_write_failures_total"))
	}
	// Decisions themselves were all still recorded.
	if !strings.Contains(page, `schedinspector_http_requests_total{code="200",route="/v1/inspect"} 10`) {
		t.Errorf("request counter: %s", pageLine(page, "schedinspector_http_requests_total"))
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

// TestCloseDrainsAndRejects pins shutdown: Close is idempotent, later
// requests answer 503, and a post-Close Swap still applies (inline).
func TestCloseDrainsAndRejects(t *testing.T) {
	a, b := reloadPair(t)
	h := NewHandler(a)
	if rec := postInspect(t, h, validRequest()); rec.Code != http.StatusOK {
		t.Fatalf("pre-close inspect: %d", rec.Code)
	}
	h.Close()
	h.Close() // idempotent
	if rec := postInspect(t, h, validRequest()); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-close inspect status %d, want 503", rec.Code)
	}
	h.Swap(b)
	page := metricsPage(t, h)
	if !strings.Contains(page, "schedinspector_model_generation 2") {
		t.Errorf("post-close swap not applied: %s", pageLine(page, "schedinspector_model_generation"))
	}
}

// TestWaveMetricsUnderLoad checks the coalescing telemetry: after
// concurrent traffic, the wave-size histogram has observed every decision
// exactly once (sum of wave sizes == decisions) and the queue gauges render.
func TestWaveMetricsUnderLoad(t *testing.T) {
	h := testHandler(t)
	defer h.Close()
	srv := httptest.NewServer(h)
	defer srv.Close()

	const clients, perClient = 8, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			json.NewEncoder(&buf).Encode(validRequest())
			body := buf.Bytes()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(srv.URL+"/v1/inspect", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	page := metricsPage(t, h)
	if !strings.Contains(page, "schedinspector_inspect_wave_size_sum 200") {
		t.Errorf("wave sizes must sum to the %d decisions served: %s",
			clients*perClient, pageLine(page, "schedinspector_inspect_wave_size_sum"))
	}
	for _, name := range []string{
		"schedinspector_inspect_queue_depth",
		"schedinspector_inspect_queue_capacity",
		"schedinspector_inspect_coalesce_seconds_count",
	} {
		if !strings.Contains(page, name) {
			t.Errorf("metrics page missing %s", name)
		}
	}
}
