package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"schedinspector/internal/core"
	"schedinspector/internal/explain"
	"schedinspector/internal/obs"
)

func getTraceSnapshot(t *testing.T, h http.Handler, query string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/trace/snapshot"+query, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestTraceSnapshotEndpoint pins the self-observability surface: every
// /v1/inspect decision lands in the binary flight-recorder ring, and
// GET /v1/trace/snapshot dumps that ring — converted server-side to the
// flight-recorder JSONL by default, or as the raw .ftrace image with
// ?format=ftrace. Both views must decode to the same records.
func TestTraceSnapshotEndpoint(t *testing.T) {
	h := testHandler(t)
	const decisions = 3
	for i := 0; i < decisions; i++ {
		if rec := postInspect(t, h, validRequest()); rec.Code != http.StatusOK {
			t.Fatalf("inspect %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}

	rec := getTraceSnapshot(t, h, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot: status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("jsonl snapshot Content-Type %q", ct)
	}
	jsonl, err := explain.ReadTrace(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatalf("converted snapshot unreadable: %v\n%s", err, rec.Body)
	}
	if len(jsonl.Records) != decisions {
		t.Fatalf("converted snapshot has %d decisions, want %d", len(jsonl.Records), decisions)
	}
	if jsonl.Header == nil {
		t.Fatal("converted snapshot missing the explain header line")
	}

	raw := getTraceSnapshot(t, h, "?format=ftrace")
	if raw.Code != http.StatusOK {
		t.Fatalf("ftrace snapshot: status %d", raw.Code)
	}
	if ct := raw.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("ftrace snapshot Content-Type %q", ct)
	}
	binary, err := explain.ReadFTrace(bytes.NewReader(raw.Body.Bytes()))
	if err != nil {
		t.Fatalf("ftrace snapshot unreadable: %v", err)
	}
	if len(binary.Records) != decisions {
		t.Fatalf("ftrace snapshot has %d decisions, want %d", len(binary.Records), decisions)
	}
	for i := range binary.Records {
		if binary.Records[i].Action != jsonl.Records[i].Action ||
			binary.Records[i].JobID != jsonl.Records[i].JobID {
			t.Errorf("record %d diverges between views: %+v vs %+v",
				i, binary.Records[i], jsonl.Records[i])
		}
	}

	yaml := getTraceSnapshot(t, h, "?format=yaml")
	if yaml.Code != http.StatusBadRequest {
		t.Errorf("unknown format: status %d, want 400", yaml.Code)
	}
	// "binary" is not an alias of ftrace: it is refused like any other
	// unknown format.
	bin := getTraceSnapshot(t, h, "?format=binary")
	if bin.Code != http.StatusBadRequest || !strings.Contains(bin.Body.String(), "want jsonl or ftrace") {
		t.Errorf("format=binary: status %d, want the unknown-format 400", bin.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/trace/snapshot", strings.NewReader("{}"))
	post := httptest.NewRecorder()
	h.ServeHTTP(post, req)
	if post.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST snapshot: status %d, want 405", post.Code)
	}

	// A long-lived daemon's ring has wrapped and evicted its one header
	// record; the snapshot must still open with the header its records
	// decode against.
	for i := 0; i <= h.ring.Cap(); i++ {
		if rec := postInspect(t, h, validRequest()); rec.Code != http.StatusOK {
			t.Fatalf("inspect %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	if h.ring.Dropped() == 0 {
		t.Fatal("ring did not wrap")
	}
	first, _, _ := strings.Cut(getTraceSnapshot(t, h, "").Body.String(), "\n")
	if !strings.HasPrefix(first, `{"kind":"explain_header","mode":"manual"`) {
		t.Fatalf("wrapped-ring snapshot opens with %q, want the explain_header line", first)
	}
	wrapped, err := explain.ReadFTrace(bytes.NewReader(getTraceSnapshot(t, h, "?format=ftrace").Body.Bytes()))
	if err != nil || wrapped.Header == nil || len(wrapped.Header.Features) != len(wrapped.Records[0].Features) {
		t.Fatalf("wrapped-ring ftrace snapshot: header %+v, err %v", wrapped.Header, err)
	}

	// The ring's own health shows up on /metrics.
	mreq := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, mreq)
	if mrec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", mrec.Code)
	}
	for _, want := range []string{
		"schedinspector_ftrace_ring_records",
		"schedinspector_ftrace_ring_evicted_total",
		"schedinspector_ftrace_sink_errors_total 0",
	} {
		if !strings.Contains(mrec.Body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTraceSnapshotUnknownFormat: an unknown ?format= is answered 400
// before the ring is read. The rejected request allocates no more than
// parsing its query and writing the 400 do; the snapshot copy it used to
// take first (the whole ring, ~1 MB on a full manual-mode ring) is gone.
func TestTraceSnapshotUnknownFormat(t *testing.T) {
	h := testHandler(t)
	defer h.Close()
	for i := 0; i < 64; i++ {
		if rec := postInspect(t, h, validRequest()); rec.Code != http.StatusOK {
			t.Fatalf("inspect %d: status %d", i, rec.Code)
		}
	}
	rec := getTraceSnapshot(t, h, "?format=bogus")
	if want := "unknown format \"bogus\" (want jsonl or ftrace)\n"; rec.Code != http.StatusBadRequest || rec.Body.String() != want {
		t.Fatalf("status %d body %q, want 400 %q", rec.Code, rec.Body, want)
	}
	if raceBuild {
		t.Skip("the race detector allocates on its own")
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/trace/snapshot?format=bogus", nil)
	w := &discardWriter{h: make(http.Header)}
	route := testing.AllocsPerRun(50, func() { h.traceSnapshot(w, req) })
	reject := testing.AllocsPerRun(50, func() {
		format := req.URL.Query().Get("format")
		http.Error(w, fmt.Sprintf("unknown format %q (want jsonl or ftrace)", format), http.StatusBadRequest)
	})
	if w.code != http.StatusBadRequest || route > reject {
		t.Fatalf("rejected snapshot: status %d, %.0f allocs; parsing the query and writing the 400 take %.0f",
			w.code, route, reject)
	}
}

// TestTraceSnapshotRenderError: a record with no JSON form ends the JSONL
// body with the lines before it and one "# snapshot conversion error" line,
// the body converting the ring's image gives, under a Content-Length that
// counts it.
func TestTraceSnapshotRenderError(t *testing.T) {
	h := testHandler(t)
	defer h.Close()
	for i := 0; i < 3; i++ {
		postInspect(t, h, waveRequest(i))
	}
	h.ring.EmitDecision(&obs.ExplainRecord{Wait: math.NaN()})
	postInspect(t, h, waveRequest(3))
	var want bytes.Buffer
	err := explain.ConvertFTrace(bytes.NewReader(h.ring.Snapshot()), &want)
	if err == nil {
		t.Fatal("a NaN record converted without error")
	}
	fmt.Fprintf(&want, "# snapshot conversion error: %v\n", err)
	for i := 0; i < 2; i++ { // the failing record is re-rendered, not cached
		rec := getTraceSnapshot(t, h, "")
		if rec.Code != http.StatusOK || rec.Body.String() != want.String() {
			t.Fatalf("status %d body\n%s\nwant\n%s", rec.Code, rec.Body, want.String())
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(want.Len()) {
			t.Fatalf("Content-Length %s for a %d-byte body", got, want.Len())
		}
	}
}

// TestReadRoutesShareBuffersSafely runs the snapshot (both formats) and
// /v1/explain/last from several goroutines while decisions keep landing:
// the routes reuse response buffers across requests, and every body must
// still be one whole, well-formed answer of its own. The decisions wrap the
// ring, and a feature-mode-changing Swap lands mid-run, so JSONL snapshots
// also render windows that open with the evicted header and hold both
// feature modes.
func TestReadRoutesShareBuffersSafely(t *testing.T) {
	h := testHandler(t)
	defer h.Close()
	for i := 0; i < 64; i++ {
		postInspect(t, h, waveRequest(i))
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	go func() {
		defer close(done)
		n := h.ring.Cap() + 200
		for i := 0; i < n; i++ {
			if i == n/2 {
				h.Swap(equivInspector(1, core.NativeFeatures))
			}
			postInspect(t, h, waveRequest(i))
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if i >= 15 {
					select {
					case <-done:
						return
					default:
					}
				}
				var err error
				switch (g + i) % 3 {
				case 0:
					rec := getTraceSnapshot(t, h, "")
					var tr *explain.Trace
					if tr, err = explain.ReadTrace(bytes.NewReader(rec.Body.Bytes())); err == nil && (tr.Header == nil || len(tr.Records) < 64) {
						err = fmt.Errorf("jsonl snapshot: header %v, %d decisions", tr.Header != nil, len(tr.Records))
					}
				case 1:
					_, err = explain.ReadFTrace(bytes.NewReader(getTraceSnapshot(t, h, "?format=ftrace").Body.Bytes()))
				case 2:
					// Up to 64 records: just after the Swap, fewer are
					// labeled by the new mode's names.
					var resp ExplainLastResponse
					if err = json.Unmarshal(getExplain(t, h, "?n=64").Body.Bytes(), &resp); err == nil && len(resp.Records) > 64 {
						err = fmt.Errorf("explain/last: %d records", len(resp.Records))
					}
					for _, r := range resp.Records {
						if err == nil && len(r.Features) != len(resp.FeatureNames) {
							err = fmt.Errorf("explain/last: %d features under %d names", len(r.Features), len(resp.FeatureNames))
						}
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	<-done
	if h.ring.Dropped() == 0 {
		t.Fatal("the ring never wrapped; the evicted-header path did not run")
	}
}

// stalledWriter is a ResponseWriter whose Write parks until release is
// closed: a client that never reads its response body.
type stalledWriter struct {
	h       http.Header
	writing chan struct{}
	release chan struct{}
	once    sync.Once
}

func (w *stalledWriter) Header() http.Header { return w.h }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.writing) })
	<-w.release
	return len(p), nil
}

// TestStalledSnapshotBlocksNothing: a JSONL snapshot whose client never
// reads holds no lock while its body is written, so /v1/inspect and a
// second JSONL snapshot both complete meanwhile.
func TestStalledSnapshotBlocksNothing(t *testing.T) {
	h := testHandler(t)
	defer h.Close()
	for i := 0; i < 64; i++ {
		postInspect(t, h, waveRequest(i))
	}
	stalled := &stalledWriter{h: make(http.Header), writing: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		h.ServeHTTP(stalled, httptest.NewRequest(http.MethodGet, "/v1/trace/snapshot", nil))
	}()
	<-stalled.writing

	finished := make(chan error, 1)
	go func() {
		for i := 0; i < 8; i++ {
			if rec := postInspect(t, h, waveRequest(i)); rec.Code != http.StatusOK {
				finished <- fmt.Errorf("inspect: status %d", rec.Code)
				return
			}
		}
		rec := getTraceSnapshot(t, h, "")
		tr, err := explain.ReadTrace(bytes.NewReader(rec.Body.Bytes()))
		if err == nil && len(tr.Records) != 72 {
			err = fmt.Errorf("second snapshot holds %d decisions, want 72", len(tr.Records))
		}
		finished <- err
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("inspects and a second snapshot are stuck behind a snapshot whose client does not read")
	}
	if stalled.h.Get("Content-Length") == "" {
		t.Error("the stalled snapshot set no Content-Length")
	}
	close(stalled.release)
	<-served
}

// TestNativeModeDecisionsAreRecorded serves a native-mode model (§3.3: 102
// features, records and header about 1 KB and 2 KB) from the default ring:
// /v1/explain/last answers with the decisions, the snapshot carries its
// header, and the tail the online loop builds its replay window from sees
// every one. Before slots followed the records, all of them were dropped as
// oversize, so the loop could never fill a window for a native model.
func TestNativeModeDecisionsAreRecorded(t *testing.T) {
	h := NewHandler(equivInspector(1, core.NativeFeatures))
	defer h.Close()
	const decisions = 5
	for i := 0; i < decisions; i++ {
		if rec := postInspect(t, h, waveRequest(i)); rec.Code != http.StatusOK {
			t.Fatalf("inspect %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	var resp ExplainLastResponse
	if err := json.Unmarshal(getExplain(t, h, "").Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	dim := core.NativeFeatures.Dim()
	if resp.Total != decisions || len(resp.Records) != decisions || len(resp.FeatureNames) != dim {
		t.Fatalf("/v1/explain/last: total %d, %d records, %d feature names; want %d, %d, %d",
			resp.Total, len(resp.Records), len(resp.FeatureNames), decisions, decisions, dim)
	}
	if got := len(resp.Records[0].Features); got != dim {
		t.Fatalf("record carries %d features, want %d", got, dim)
	}
	img := h.TraceRing().Snapshot()
	recs, newest, err := explain.TailDecisions(img, -1)
	if err != nil || len(recs) != decisions || newest != decisions-1 {
		t.Fatalf("tail saw %d decisions (newest seq %d, err %v), want %d", len(recs), newest, err, decisions)
	}
	if tr, err := explain.ReadFTrace(bytes.NewReader(img)); err != nil || tr.Header == nil || len(tr.Header.Features) != dim {
		t.Fatalf("snapshot header %+v, err %v", tr.Header, err)
	}
	if n := h.TraceRing().Oversized(); n != 0 {
		t.Fatalf("%d records dropped as oversize", n)
	}
}

// ringBytes reads the ring's memory gauge off /metrics.
func ringBytes(t *testing.T, h http.Handler) int {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	const name = "\nschedinspector_ftrace_ring_bytes "
	_, rest, ok := strings.Cut(rec.Body.String(), name)
	line, _, _ := strings.Cut(rest, "\n")
	n, err := strconv.ParseFloat(line, 64)
	if !ok || err != nil {
		t.Fatalf("/metrics has no ring bytes gauge: %v\n%s", err, rec.Body)
	}
	return int(n)
}

// headerSlot is the slot width a feature mode's header record asks for:
// the smallest power of two holding it framed (kind, length, then mode,
// name count, names and rejection cap).
func headerSlot(mode core.FeatureMode) int {
	framed := 5 + 4 + len(mode.String()) + 4 + 8
	for _, name := range mode.FeatureNames() {
		framed += 4 + len(name)
	}
	return 1 << bits.Len(uint(framed-1))
}

// TestRingFootprint pins the daemon ring's memory. A manual-mode handler's
// first record is its header, which sizes the slots at 256 bytes, and every
// manual decision fits them: after a wrapped ring and a same-mode reload the
// arena is 4096 x 256 bytes, 1 MiB. A swap to native mode widens the slots
// to its header's width, and the JSONL and ftrace snapshots and
// /v1/explain/last still decode every record.
func TestRingFootprint(t *testing.T) {
	h := NewHandler(equivInspector(1, core.ManualFeatures))
	defer h.Close()
	for i := 0; i < 5000; i++ {
		if rec := postInspect(t, h, waveRequest(i)); rec.Code != http.StatusOK {
			t.Fatalf("inspect %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	h.Swap(equivInspector(2, core.ManualFeatures))
	if got := ringBytes(t, h); got != 1<<20 || got != h.ring.Cap()*headerSlot(core.ManualFeatures) {
		t.Fatalf("manual-mode ring holds %d bytes, want 1 MiB (%d slots of 256)", got, h.ring.Cap())
	}

	h.Swap(equivInspector(3, core.NativeFeatures))
	const native = 6
	for i := 0; i < native; i++ {
		if rec := postInspect(t, h, waveRequest(i)); rec.Code != http.StatusOK {
			t.Fatalf("native inspect %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	if got, want := ringBytes(t, h), h.ring.Cap()*headerSlot(core.NativeFeatures); got != want {
		t.Fatalf("after a swap to native mode the ring holds %d bytes, want %d", got, want)
	}
	if n := h.ring.Oversized(); n != 0 {
		t.Fatalf("%d records dropped as oversize", n)
	}

	// The native header evicted one manual decision, each native one more.
	held := h.ring.Cap() - 1
	manualDim, nativeDim := core.ManualFeatures.Dim(), core.NativeFeatures.Dim()
	checkDims := func(view string, recs []obs.ExplainRecord) {
		t.Helper()
		if len(recs) != held {
			t.Fatalf("%s decodes %d decisions, want %d", view, len(recs), held)
		}
		for i := range recs {
			want := manualDim
			if i >= held-native {
				want = nativeDim
			}
			if len(recs[i].Features) != want {
				t.Fatalf("%s record %d carries %d features, want %d", view, i, len(recs[i].Features), want)
			}
		}
	}
	jsonl, err := explain.ReadTrace(bytes.NewReader(getTraceSnapshot(t, h, "").Body.Bytes()))
	if err != nil {
		t.Fatalf("JSONL snapshot: %v", err)
	}
	checkDims("JSONL snapshot", jsonl.Records)
	ftrace, err := explain.ReadFTrace(bytes.NewReader(getTraceSnapshot(t, h, "?format=ftrace").Body.Bytes()))
	if err != nil {
		t.Fatalf("ftrace snapshot: %v", err)
	}
	checkDims("ftrace snapshot", ftrace.Records)

	var last ExplainLastResponse
	if err := json.Unmarshal(getExplain(t, h, "?n=4096").Body.Bytes(), &last); err != nil {
		t.Fatal(err)
	}
	if len(last.Records) != native || len(last.FeatureNames) != nativeDim {
		t.Fatalf("/v1/explain/last: %d records under %d names, want %d under %d",
			len(last.Records), len(last.FeatureNames), native, nativeDim)
	}
	for i := range last.Records {
		if len(last.Records[i].Features) != nativeDim {
			t.Fatalf("/v1/explain/last record %d carries %d features, want %d", i, len(last.Records[i].Features), nativeDim)
		}
	}
}
