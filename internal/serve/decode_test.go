package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"schedinspector/internal/core"
	"schedinspector/internal/mutants"
	"schedinspector/internal/obs"
	"schedinspector/internal/workload"
)

// The differential oracle of the single-pass codecs. The wire contract is
// encoding/json's: DecodeInspect and DecodeSimulate may only ever agree with
// it or step aside, and each route as a whole must answer every body —
// status, error text, response bytes — the way the encoding/json-only route
// did. This file holds the /v1/inspect half and the shared route pair;
// simulate_decode_test.go holds the /v1/simulate half.

// benchShapedBody is a body the way a Go client marshals one (and the
// repository's benchmark does): compact, fields in struct order, fractional
// estimates from a trace.
func benchShapedBody(seed int64, depth int) []byte {
	rng := rand.New(rand.NewSource(seed))
	tr := workload.SDSCSP2Like(200, 5)
	var r InspectRequest
	j := tr.Jobs[rng.Intn(len(tr.Jobs))]
	r.Job.Wait, r.Job.Est, r.Job.Procs = float64(rng.Intn(10000)), j.Est+0.25, j.Procs
	r.TotalProcs = tr.MaxProcs
	r.FreeProcs = rng.Intn(tr.MaxProcs + 1)
	r.BackfillEnabled, r.BackfillCount = true, 2
	r.Queue = make([]QueueItem, depth)
	for k := range r.Queue {
		q := tr.Jobs[rng.Intn(len(tr.Jobs))]
		r.Queue[k] = QueueItem{Wait: float64(rng.Intn(10000)), Est: q.Est / 3, Procs: q.Procs}
	}
	body, err := json.Marshal(&r)
	if err != nil {
		panic(err)
	}
	return body
}

// decodeCases is the seed corpus of the fuzz target and the table of the
// deterministic test. canonical says which decoder must take the body.
var decodeCases = []struct {
	name      string
	body      string
	canonical bool
}{
	{"bench shaped", string(benchShapedBody(1, 12)), true},
	{"bench shaped, no queue items", string(benchShapedBody(2, 0)), true},
	{"trailing newline", string(benchShapedBody(3, 2)) + "\n", true},
	{"reordered keys", `{"queue":[{"procs":4,"est":600,"wait":60}],"total_procs":128,"free_procs":32,"job":{"procs":16,"est":3600,"wait":120},"backfill_count":1,"backfill_enabled":true,"rejections":3}`, true},
	{"whitespace everywhere", " \t\r\n{ \"job\" : { \"wait\" : 120 , \"est\" : 3600 , \"procs\" : 16 } ,\n\"free_procs\" : 32 , \"total_procs\" : 128 , \"backfill_enabled\" : false ,\r\n\"queue\" : [ { \"wait\" : 60 , \"est\" : 600 , \"procs\" : 4 } , { } ] } \n\t", true},
	{"empty object", `{}`, true},
	{"empty queue", `{"job":{"wait":1,"est":2,"procs":3},"free_procs":1,"total_procs":4,"queue":[]}`, true},
	{"empty job", `{"job":{},"total_procs":4}`, true},
	{"negative zero", `{"job":{"wait":-0,"est":-0.0,"procs":-0},"free_procs":-0,"total_procs":4}`, true},
	{"fractions and exponents", `{"job":{"wait":1.5e2,"est":3.6E+3,"procs":16},"free_procs":32,"total_procs":128,"queue":[{"wait":0.000001,"est":1e-7,"procs":1},{"wait":123456789012345,"est":1234567890123456,"procs":2}]}`, true},
	{"tiny exponent underflows to zero", `{"job":{"wait":1e-999,"est":1,"procs":1},"total_procs":1}`, true},
	{"18-digit int", `{"job":{"wait":1,"est":1,"procs":123456789012345678},"total_procs":-123456789012345678}`, true},
	{"19-digit integer", `{"job":{"wait":120,"est":3600,"procs":16},"free_procs":32,"total_procs":1234567890123456789}`, true},
	{"int64 extremes", `{"job":{"wait":1,"est":1,"procs":9223372036854775807},"total_procs":-9223372036854775808}`, true},
	{"long float token", `{"job":{"wait":0.1234567890123456789012345678901234567890,"est":1,"procs":1},"total_procs":1}`, true},
	{"digit runs of 7 to 9", `{"job":{"wait":1234567,"est":12345678.123456789,"procs":123456789},"total_procs":4,"queue":[{"wait":0.1234567,"est":0.12345678,"procs":12345678},{"wait":123456789,"est":1.12345678,"procs":1234567}]}`, true},
	{"digit runs of 15 to 17", `{"job":{"wait":123456789012345,"est":1234567890123456.5,"procs":12345678901234567},"total_procs":4,"queue":[{"wait":0.123456789012345,"est":0.1234567890123456,"procs":123456789012345},{"wait":12345678901234567,"est":1.1234567890123456,"procs":1234567890123456}]}`, true},
	{"digit runs of 19 and 20", `{"job":{"wait":1234567890123456789,"est":12345678901234567890,"procs":1234567890123456789},"total_procs":4,"queue":[{"wait":0.1234567890123456789,"est":0.12345678901234567890,"procs":1}]}`, true},
	{"'.', ',' and '}' at each window position", windowItems(queueHead, `{"wait":D,"est":D.5,"procs":D}`), true},
	{"'e' at each window position, fraction runs", windowItems(queueHead, `{"wait":De1,"est":0.D,"procs":1}`), true},
	{"many fraction digits after zeros", `{"job":{"wait":1,"est":0.000000001234567890123,"procs":1},"total_procs":4,"queue":[{"wait":0.000000001234567890123,"est":1,"procs":1}]}`, true},
	{"negative zeros in an item", `{"job":{"wait":-0,"est":-0.00000000,"procs":-0},"total_procs":4,"queue":[{"wait":-0.00000000,"est":-0,"procs":-0}]}`, true},
	{"exponent in a predicted item", `{"job":{"wait":1e2,"est":2,"procs":3},"total_procs":4,"queue":[{"wait":1e2,"est":2,"procs":3}]}`, true},
	{"space before an item's brace", `{"job":{"wait":1,"est":2,"procs":3 },"total_procs":4,"queue":[{"wait":1,"est":2,"procs":3 }]}`, true},
	{"item ends after est", `{"job":{"wait":1,"est":2},"total_procs":4,"queue":[{"wait":1,"est":2},{"wait":1,"est":2,"procs":3}]}`, true},

	{"duplicate queue", `{"job":{"wait":1,"est":2,"procs":3},"total_procs":4,"queue":[{"wait":1,"est":1,"procs":1},{"wait":2,"est":2,"procs":2}],"queue":[{"wait":9}]}`, false},
	{"duplicate scalar", `{"job":{"wait":1,"est":2,"procs":3},"total_procs":4,"total_procs":8}`, false},
	{"duplicate job", `{"job":{"wait":1,"est":2,"procs":3},"job":{"procs":5},"total_procs":8}`, false},
	{"duplicate key in item", `{"job":{"wait":1,"est":2,"procs":3},"total_procs":8,"queue":[{"wait":1,"wait":2}]}`, false},
	{"duplicate key after a predicted item", `{"job":{"wait":1,"est":2,"procs":3},"total_procs":8,"queue":[{"wait":1,"est":2,"procs":3,"wait":4}]}`, false},
	{"duplicate key after the predicted job", `{"job":{"wait":1,"est":2,"procs":3,"wait":4},"total_procs":8}`, false},
	{"20-digit procs in an item", `{"job":{"wait":1,"est":2,"procs":3},"total_procs":8,"queue":[{"wait":1,"est":2,"procs":12345678901234567890}]}`, false},
	{"'-' after three digits", `{"job":{"wait":1,"est":2,"procs":3},"total_procs":8,"queue":[{"wait":123-4,"est":2,"procs":3}]}`, false},
	{"'-' after eight digits", `{"job":{"wait":1,"est":2,"procs":3},"total_procs":8,"queue":[{"wait":12345678-9,"est":2,"procs":3}]}`, false},
	{"case-variant key", `{"Job":{"wait":120,"est":3600,"procs":16},"free_procs":32,"total_procs":128}`, false},
	{"case-variant nested key", `{"job":{"WAIT":120,"est":3600,"procs":16},"free_procs":32,"total_procs":128}`, false},
	{"escaped key", `{"j\u006fb":{"wait":120,"est":3600,"procs":16},"free_procs":32,"total_procs":128}`, false},
	{"unknown key with nested object", `{"job":{"wait":120,"est":3600,"procs":16},"meta":{"a":[1,{"b":null}],"c":"}"},"free_procs":32,"total_procs":128}`, false},
	{"key with padding", `{" queue":[],"job":{"wait":120,"est":3600,"procs":16},"total_procs":128}`, false},
	{"null values", `{"job":null,"rejections":null,"free_procs":32,"total_procs":128,"queue":null}`, false},
	{"null queue item", `{"job":{"wait":1,"est":2,"procs":3},"total_procs":4,"queue":[null]}`, false},
	{"float for int field", `{"job":{"wait":120,"est":3600,"procs":1.0},"free_procs":32,"total_procs":128}`, false},
	{"float procs after a predicted prefix", `{"job":{"wait":1,"est":2,"procs":3},"total_procs":8,"queue":[{"wait":1,"est":2,"procs":1.0}]}`, false},
	{"exponent for int field", `{"job":{"wait":120,"est":3600,"procs":1e2},"free_procs":32,"total_procs":128}`, false},
	{"out of range float", `{"job":{"wait":1e999,"est":3600,"procs":16},"free_procs":32,"total_procs":128}`, false},
	{"past MaxInt64", `{"job":{"wait":120,"est":3600,"procs":16},"free_procs":32,"total_procs":9223372036854775808}`, false},
	{"past MinInt64", `{"job":{"wait":120,"est":3600,"procs":16},"free_procs":32,"total_procs":-9223372036854775809}`, false},
	{"20-digit integer", `{"job":{"wait":120,"est":3600,"procs":16},"free_procs":32,"total_procs":12345678901234567890}`, false},
	{"string number", `{"job":{"wait":"120","est":3600,"procs":16},"free_procs":32,"total_procs":128}`, false},
	{"string bool", `{"job":{"wait":120,"est":3600,"procs":16},"total_procs":128,"backfill_enabled":"true"}`, false},
	{"number for bool", `{"job":{"wait":120,"est":3600,"procs":16},"total_procs":128,"backfill_enabled":1}`, false},
	{"object for queue", `{"job":{"wait":120,"est":3600,"procs":16},"total_procs":128,"queue":{}}`, false},
	{"array for job", `{"job":[],"total_procs":128}`, false},
	{"leading zero", `{"job":{"wait":0120,"est":3600,"procs":16},"total_procs":128}`, false},
	{"bare minus", `{"job":{"wait":-,"est":3600,"procs":16},"total_procs":128}`, false},
	{"dot without digits", `{"job":{"wait":1.,"est":3600,"procs":16},"total_procs":128}`, false},
	{"plus sign", `{"job":{"wait":+1,"est":3600,"procs":16},"total_procs":128}`, false},
	{"hex", `{"job":{"wait":0x10,"est":3600,"procs":16},"total_procs":128}`, false},
	{"trailing comma", `{"job":{"wait":120,"est":3600,"procs":16},"total_procs":128,}`, false},
	{"trailing comma in queue", `{"job":{"wait":120,"est":3600,"procs":16},"total_procs":128,"queue":[{},]}`, false},
	{"missing colon", `{"job" {"wait":120}}`, false},
	{"missing comma", `{"free_procs":1 "total_procs":2}`, false},
	{"trailing junk", `{"job":{"wait":120,"est":3600,"procs":16},"free_procs":32,"total_procs":128} junk`, false},
	{"second value", `{"job":{"wait":120,"est":3600,"procs":16},"free_procs":32,"total_procs":128}{"total_procs":1}`, false},
	{"trailing NUL", "{\"job\":{\"wait\":120,\"est\":3600,\"procs\":16},\"free_procs\":32,\"total_procs\":128}\x00", false},
	{"truncated", `{"job":{"wait":120,"est":3600,"procs":16},"free_procs":32,"total_pro`, false},
	{"top-level null", `null`, false},
	{"top-level array", `[]`, false},
	{"top-level number", `12`, false},
	{"garbage", `{not json`, false},
	{"empty", ``, false},
	{"only whitespace", "  \n", false},
	{"byte order mark", "\xef\xbb\xbf{}", false},
}

// windowItems is head, then item sixteen times with its every D replaced by
// the first k digits of 1234567890… for k from 1 to 16, then "]}": the byte
// after the run sits at each position of a run's first and second eight-byte
// window.
func windowItems(head, item string) string {
	items := make([]string, 16)
	for k := range items {
		items[k] = strings.ReplaceAll(item, "D", strings.Repeat("1234567890", 2)[:k+1])
	}
	return head + strings.Join(items, ",") + "]}"
}

// queueHead opens an inspect body's queue for windowItems.
const queueHead = `{"job":{"wait":1,"est":2,"procs":3},"total_procs":8,"queue":[`

func stdInspect(body []byte) (InspectRequest, error) {
	var req InspectRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// diffRequests compares two decoded requests the strict way: floats by bit
// pattern (so -0 is not 0) and the queue's nil-ness too (encoding/json
// decodes null and [] apart).
func diffRequests(got, want *InspectRequest) string {
	feq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case !feq(got.Job.Wait, want.Job.Wait) || !feq(got.Job.Est, want.Job.Est) || got.Job.Procs != want.Job.Procs:
		return fmt.Sprintf("job %+v, want %+v", got.Job, want.Job)
	case got.Rejections != want.Rejections || got.FreeProcs != want.FreeProcs || got.TotalProcs != want.TotalProcs ||
		got.BackfillEnabled != want.BackfillEnabled || got.BackfillCount != want.BackfillCount:
		return fmt.Sprintf("scalars %+v, want %+v", got, want)
	case len(got.Queue) != len(want.Queue) || (got.Queue == nil) != (want.Queue == nil):
		return fmt.Sprintf("queue len %d nil %v, want len %d nil %v", len(got.Queue), got.Queue == nil, len(want.Queue), want.Queue == nil)
	}
	for i := range got.Queue {
		g, w := got.Queue[i], want.Queue[i]
		if !feq(g.Wait, w.Wait) || !feq(g.Est, w.Est) || g.Procs != w.Procs {
			return fmt.Sprintf("queue[%d] %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// dirtyRequest is a request as a pooled scratch hands it to the decoder:
// every field set by an earlier request, stale items within capacity.
func dirtyRequest() *InspectRequest {
	req := &InspectRequest{Rejections: 7, FreeProcs: 7, TotalProcs: 7, BackfillEnabled: true, BackfillCount: 7}
	req.Job.Wait, req.Job.Est, req.Job.Procs = 7, 7, 7
	req.Queue = []QueueItem{{Wait: 7, Est: 7, Procs: 7}, {Wait: 7, Est: 7, Procs: 7}, {Wait: 7, Est: 7, Procs: 7}}
	return req
}

// checkDecode holds DecodeInspect to its contract on one body, decoding into
// a fresh request and into a used one, and reports whether it took the body.
func checkDecode(t *testing.T, body []byte) (canonical bool) {
	t.Helper()
	want, wantErr := stdInspect(body)
	for _, got := range []*InspectRequest{{}, dirtyRequest()} {
		switch err := DecodeInspect(body, got); {
		case err == nil:
			if wantErr != nil {
				t.Fatalf("DecodeInspect accepted %q, encoding/json says %v", body, wantErr)
			}
			if d := diffRequests(got, &want); d != "" {
				t.Fatalf("DecodeInspect(%q): %s", body, d)
			}
			canonical = true
		case err != ErrNotCanonical:
			t.Fatalf("DecodeInspect(%q) = %v, the only error is ErrNotCanonical", body, err)
		case canonical:
			t.Fatalf("DecodeInspect(%q) took the body into a fresh request and not into a used one", body)
		}
	}
	return canonical
}

// parentInspect is the /v1/inspect route as it was when encoding/json was
// its only codec — decoder on the connection, the validation texts, the
// copied queue, json.Encoder for the verdict — over h's model lock. It is the
// reference the live route is compared against, byte for byte.
func parentInspect(h *Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		var req InspectRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
			return
		}
		if req.Job.Procs <= 0 || req.Job.Est <= 0 || req.TotalProcs <= 0 {
			http.Error(w, "job.procs, job.est and total_procs must be positive", http.StatusBadRequest)
			return
		}
		if req.FreeProcs < 0 || req.FreeProcs > req.TotalProcs {
			http.Error(w, "free_procs out of range", http.StatusBadRequest)
			return
		}
		if msg := contextError(&req); msg != "" {
			http.Error(w, msg, http.StatusBadRequest)
			return
		}
		resp, code := h.decide(r.Context(), &req, waveState(&req))
		if code != http.StatusOK {
			http.Error(w, http.StatusText(code), code)
			return
		}
		writeJSON(w, resp)
	})
}

// parentSimulate is the /v1/simulate route as it was when encoding/json was
// its only codec: the decoder streaming from the connection, then the same
// simulation as the live route.
func parentSimulate(h *Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		var req SimulateRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSimulateBody)).Decode(&req); err != nil {
			bodyError(w, err)
			return
		}
		h.runSimulate(w, &req)
	})
}

// routePair is the live routes and the reference routes over two handlers
// that serve the same model with the same sampling stream: fed the same
// bodies in the same order they must answer identically, sampled verdicts
// included, and record identical flight records.
type routePair struct {
	live, ref *Handler
	refRoutes map[string]http.Handler // by path
}

func newRoutePair(tb testing.TB) *routePair {
	rp := &routePair{
		live: NewHandler(equivInspector(11, core.ManualFeatures)),
		ref:  NewHandler(equivInspector(11, core.ManualFeatures)),
	}
	rp.refRoutes = map[string]http.Handler{
		"/v1/inspect":  parentInspect(rp.ref),
		"/v1/simulate": parentSimulate(rp.ref),
	}
	tb.Cleanup(rp.live.Close)
	tb.Cleanup(rp.ref.Close)
	return rp
}

// recordBits flattens a flight record: integers and bools as they are,
// floats by bit pattern (so -0 is not 0), each slice behind its length.
func recordBits(r *obs.ExplainRecord) []uint64 {
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	out := []uint64{uint64(r.Epoch), uint64(r.Traj), uint64(r.Seq), math.Float64bits(r.Time),
		uint64(r.JobID), math.Float64bits(r.Wait), uint64(r.Procs), math.Float64bits(r.Est),
		uint64(r.Rejections), uint64(r.MaxRejections), uint64(r.QueueLen), uint64(r.FreeProcs),
		uint64(r.TotalProcs), math.Float64bits(r.Utilization), uint64(r.Action), b2u(r.Sampled), b2u(r.Rejected)}
	for _, vs := range [][]float64{r.Features, r.Logits, r.Probs} {
		out = append(out, uint64(len(vs)))
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// check posts body to both handlers' route at path and requires the same
// status, the same response bytes, the same last flight record, and the route's
// fallback counter to move exactly when its single-pass decoder stepped
// aside.
func (rp *routePair) check(t *testing.T, path string, body []byte, canonical bool) {
	t.Helper()
	post := func(h http.Handler) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	fallbacks := rp.live.fallbacks
	if path == "/v1/simulate" {
		fallbacks = rp.live.simFallbacks
	}
	before := fallbacks.Value()
	got, want := post(rp.live), post(rp.refRoutes[path])
	if got.Code != want.Code || got.Body.String() != want.Body.String() {
		t.Fatalf("body %q:\nroute answered %d %q\nencoding/json route %d %q", body, got.Code, got.Body, want.Code, want.Body)
	}
	if g, w := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); g != w {
		t.Fatalf("body %q: Content-Type %q, want %q", body, g, w)
	}
	_, g := rp.live.ring.LastDecisions(1)
	_, w := rp.ref.ring.LastDecisions(1)
	if len(g) != len(w) || len(g) == 1 && !slices.Equal(recordBits(&g[0]), recordBits(&w[0])) {
		t.Fatalf("body %q:\nrecorded  %+v\nreference %+v", body, g, w)
	}
	fell := fallbacks.Value() - before
	if canonical && fell != 0 || !canonical && fell != 1 {
		t.Fatalf("body %q: canonical=%v but the fallback counter moved by %v", body, canonical, fell)
	}
}

// TestDecodeInspectTable runs the seed corpus deterministically: each body
// is taken by the decoder the table says, decodes to what encoding/json
// decodes, and is answered as the encoding/json-only route answers it.
func TestDecodeInspectTable(t *testing.T) {
	rp := newRoutePair(t)
	for _, c := range decodeCases {
		t.Run(c.name, func(t *testing.T) {
			if got := checkDecode(t, []byte(c.body)); got != c.canonical {
				t.Fatalf("DecodeInspect took the body: %v, want %v", got, c.canonical)
			}
			rp.check(t, "/v1/inspect", []byte(c.body), c.canonical)
		})
	}
}

// TestDecodeInspectTruncationSweep cuts two valid bodies at every length and
// flips each of their bits: every mutant (a digit turned point, sign or 'e')
// is answered, error text included, as the encoding/json-only route answers it.
func TestDecodeInspectTruncationSweep(t *testing.T) {
	rp := newRoutePair(t)
	// Whitespace between all tokens gives the most cut points; the value
	// appended makes every prefix past the first value a body with trailing bytes.
	spaced := []byte(" \t\r\n{ \"job\" : { \"wait\" : 1.5e2 , \"est\" : 3600 , \"procs\" : 16 } ,\n\"free_procs\" : 32 , \"total_procs\" : 128 , \"backfill_enabled\" : false ,\r\n\"queue\" : [ { \"wait\" : -0.5 , \"est\" : 600 , \"procs\" : 4 } , { } ] } \n\t")
	for _, body := range [][]byte{append(spaced, benchShapedBody(4, 3)...), benchShapedBody(5, 3)} {
		mutants.Each(body, func(m []byte) { rp.check(t, "/v1/inspect", m, checkDecode(t, m)) })
	}
}

// TestDecodeInspectShortRead: a body whose read ends in an error is decoded
// by encoding/json from the bytes that arrived followed by that error — what
// its decoder saw on the connection — so a complete first value still
// answers and an incomplete one reports the read error.
func TestDecodeInspectShortRead(t *testing.T) {
	rp := newRoutePair(t)
	rp.checkShortReads(t, "/v1/inspect", benchShapedBody(6, 2))
}

// checkShortReads posts whole and its first half, each read ending in an
// error, to both routes at path and requires the same answers.
func (rp *routePair) checkShortReads(t *testing.T, path string, whole []byte) {
	t.Helper()
	for _, body := range [][]byte{whole, whole[:len(whole)/2]} {
		post := func(h http.Handler) *httptest.ResponseRecorder {
			r := httptest.NewRequest(http.MethodPost, path,
				io.MultiReader(bytes.NewReader(body), errReader{io.ErrUnexpectedEOF}))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			return rec
		}
		got, want := post(rp.live), post(rp.refRoutes[path])
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Fatalf("%s short read after %d bytes:\nroute answered %d %q\nencoding/json route %d %q",
				path, len(body), got.Code, got.Body, want.Code, want.Body)
		}
	}
}

// FuzzDecodeInspect is the differential oracle on arbitrary bytes: whenever
// DecodeInspect takes a body, encoding/json takes it too and every field is
// equal; whenever it steps aside, the route's answer is still the
// encoding/json-only route's.
func FuzzDecodeInspect(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c.body))
	}
	rp := newRoutePair(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rp.check(t, "/v1/inspect", body, checkDecode(t, body))
	})
}

// TestDecodeInspectReusesQueue: decoding into a request appends to the
// queue's backing array (that is the pooled path's zero-allocation claim)
// and never leaves a stale item visible.
func TestDecodeInspectReusesQueue(t *testing.T) {
	var req InspectRequest
	deep, shallow := benchShapedBody(7, 64), benchShapedBody(8, 3)
	if err := DecodeInspect(deep, &req); err != nil {
		t.Fatal(err)
	}
	first := &req.Queue[0]
	if err := DecodeInspect(shallow, &req); err != nil {
		t.Fatal(err)
	}
	if len(req.Queue) != 3 || &req.Queue[0] != first {
		t.Fatalf("queue len %d, backing array reused: %v", len(req.Queue), &req.Queue[0] == first)
	}
	want, _ := stdInspect(shallow)
	if d := diffRequests(&req, &want); d != "" {
		t.Fatal(d)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := DecodeInspect(deep, &req); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm DecodeInspect allocates %v times", n)
	}
}

// TestMarshalledItemsTakePredictedPath: json.Marshal's spelling of a queue
// item and of a simulate job is read whole by the predicted-order path, so
// the bodies a Go client sends never reach the member loop.
func TestMarshalledItemsTakePredictedPath(t *testing.T) {
	var inspect InspectRequest
	var simulate SimulateRequest
	if err := json.Unmarshal(benchShapedBody(10, 64), &inspect); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(benchShapedSimBody(10, 64), &simulate); err != nil {
		t.Fatal(err)
	}
	for _, want := range inspect.Queue {
		b, _ := json.Marshal(want)
		s := scanner{b: b}
		var got QueueItem
		if !s.marshalledJob(&got.Wait, &got.Est, &got.Procs) || s.i != len(b) || got != want {
			t.Fatalf("%s: read %+v up to byte %d", b, got, s.i)
		}
	}
	for _, want := range simulate.Jobs {
		b, _ := json.Marshal(want)
		s := scanner{b: b}
		var got SimJob
		if !s.marshalledSimJob(&got) || s.i != len(b) || got != want {
			t.Fatalf("%s: read %+v up to byte %d", b, got, s.i)
		}
	}
}
