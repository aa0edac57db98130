package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"schedinspector/internal/mutants"
	"schedinspector/internal/workload"
)

// The /v1/simulate half of the codec oracle (decode_test.go has the route
// pair it shares with /v1/inspect).

// benchShapedSimBody is a simulate body the way the repository's benchmark
// builds one: a window of consecutive trace jobs under SJF with the
// stochastic inspector, a seed from rand.Int63 (19 digits nine times in
// ten), marshalled by encoding/json.
func benchShapedSimBody(seed int64, jobs int) []byte {
	rng := rand.New(rand.NewSource(seed))
	tr := workload.SDSCSP2Like(2000, 1)
	win := tr.Window(rng.Intn(tr.Len()-jobs+1), jobs)
	r := SimulateRequest{Policy: "SJF", MaxProcs: tr.MaxProcs, Inspector: "stochastic", Seed: rng.Int63()}
	r.Jobs = make([]SimJob, len(win))
	for k, j := range win {
		r.Jobs[k] = SimJob{Submit: j.Submit, Run: j.Run, Est: j.Est, Procs: j.Procs}
	}
	body, err := json.Marshal(&r)
	if err != nil {
		panic(err)
	}
	return body
}

// overflowBody schedules a job whose end time overflows float64.
const overflowBody = `{"max_procs":4,"inspector":"off","jobs":[{"submit":1e308,"run":1e308,"est":1,"procs":1}]}`

// simDecodeCases is the seed corpus of FuzzDecodeSimulate and the table of
// TestDecodeSimulateTable.
var simDecodeCases = []struct {
	name      string
	body      string
	canonical bool
}{
	{"bench shaped", string(benchShapedSimBody(1, 16)), true},
	{"bench shaped, 128 jobs", string(benchShapedSimBody(2, 128)), true},
	{"trailing newline", string(benchShapedSimBody(3, 2)) + "\n", true},
	{"reordered keys, whitespace", " { \"jobs\" : [ { \"procs\" : 4 , \"est\" : 600 , \"run\" : 300 , \"submit\" : 0 } ,\n{ \"submit\" : 5.5 , \"run\" : 10 , \"est\" : 1e2 , \"procs\" : 2 } ] , \"seed\" : -9223372036854775808 ,\r\n\"inspector\" : \"greedy\" , \"max_procs\" : 64 , \"conservative\" : true , \"backfill\" : true , \"policy\" : \"F1\" } \t", true},
	{"max seed", `{"policy":"SJF","max_procs":8,"seed":9223372036854775807,"jobs":[{"submit":0,"run":10,"est":20,"procs":2}]}`, true},
	{"empty object", `{}`, true},
	{"empty jobs", `{"max_procs":4,"jobs":[]}`, true},
	{"empty job", `{"max_procs":4,"jobs":[{}]}`, true},
	{"empty strings", `{"policy":"","inspector":"","max_procs":4,"jobs":[{"submit":0,"run":1,"est":1,"procs":1}]}`, true},
	{"printable punctuation", `{"policy":"S J/F~!{}[]:,","max_procs":4,"jobs":[{"submit":0,"run":1,"est":1,"procs":1}]}`, true},
	{"unknown mode", `{"inspector":"psychic","max_procs":4,"jobs":[{"submit":0,"run":1,"est":1,"procs":1}]}`, true},
	{"schedule overflows", overflowBody, true},

	{"seed past MaxInt64", `{"max_procs":4,"seed":9223372036854775808,"jobs":[{"submit":0,"run":1,"est":1,"procs":1}]}`, false},
	{"seed past MinInt64", `{"max_procs":4,"seed":-9223372036854775809,"jobs":[{"submit":0,"run":1,"est":1,"procs":1}]}`, false},
	{"20-digit seed", `{"max_procs":4,"seed":12345678901234567890,"jobs":[{"submit":0,"run":1,"est":1,"procs":1}]}`, false},
	{"float seed", `{"max_procs":4,"seed":1.0,"jobs":[{"submit":0,"run":1,"est":1,"procs":1}]}`, false},
	{"exponent seed", `{"max_procs":4,"seed":1e3,"jobs":[{"submit":0,"run":1,"est":1,"procs":1}]}`, false},
	{"float procs", `{"max_procs":4,"jobs":[{"submit":0,"run":1,"est":1,"procs":1.5}]}`, false},
	{"escaped string", `{"policy":"S\u004aF","max_procs":4,"jobs":[{"submit":0,"run":1,"est":1,"procs":1}]}`, false},
	{"escaped quote", `{"policy":"S\"JF","max_procs":4,"jobs":[{"submit":0,"run":1,"est":1,"procs":1}]}`, false},
	{"non-ASCII string", `{"policy":"SJFé","max_procs":4,"jobs":[{"submit":0,"run":1,"est":1,"procs":1}]}`, false},
	{"invalid UTF-8 string", "{\"policy\":\"SJF\xff\",\"max_procs\":4,\"jobs\":[{\"submit\":0,\"run\":1,\"est\":1,\"procs\":1}]}", false},
	{"control byte in string", "{\"policy\":\"S\tJF\",\"max_procs\":4,\"jobs\":[{\"submit\":0,\"run\":1,\"est\":1,\"procs\":1}]}", false},
	{"DEL in string", "{\"policy\":\"SJF\x7f\",\"max_procs\":4,\"jobs\":[{\"submit\":0,\"run\":1,\"est\":1,\"procs\":1}]}", false},
	{"unterminated string", `{"policy":"SJF`, false},
	{"unknown key", `{"pad":"aaaa","max_procs":4,"jobs":[{"submit":0,"run":1,"est":1,"procs":1}]}`, false},
	{"unknown key in job", `{"max_procs":4,"jobs":[{"submit":0,"run":1,"est":1,"procs":1,"id":7}]}`, false},
	{"case-variant key", `{"Policy":"SJF","max_procs":4,"jobs":[{"submit":0,"run":1,"est":1,"procs":1}]}`, false},
	{"duplicate seed", `{"max_procs":4,"seed":1,"seed":2,"jobs":[{"submit":0,"run":1,"est":1,"procs":1}]}`, false},
	{"duplicate jobs", `{"max_procs":4,"jobs":[{"submit":0,"run":1,"est":1,"procs":1},{"submit":1,"run":2,"est":2,"procs":2}],"jobs":[{"run":9}]}`, false},
	{"duplicate key in job", `{"max_procs":4,"jobs":[{"submit":0,"run":1,"run":2,"est":1,"procs":1}]}`, false},
	{"null policy", `{"policy":null,"max_procs":4,"jobs":[{"submit":0,"run":1,"est":1,"procs":1}]}`, false},
	{"null jobs", `{"max_procs":4,"jobs":null}`, false},
	{"null job", `{"max_procs":4,"jobs":[null]}`, false},
	{"number for string", `{"policy":1,"max_procs":4,"jobs":[{"submit":0,"run":1,"est":1,"procs":1}]}`, false},
	{"string for number", `{"max_procs":"4","jobs":[{"submit":0,"run":1,"est":1,"procs":1}]}`, false},
	{"string for bool", `{"backfill":"true","max_procs":4,"jobs":[{"submit":0,"run":1,"est":1,"procs":1}]}`, false},
	{"object for jobs", `{"max_procs":4,"jobs":{}}`, false},
	{"out of range float", `{"max_procs":4,"jobs":[{"submit":1e999,"run":1,"est":1,"procs":1}]}`, false},
	{"trailing comma in jobs", `{"max_procs":4,"jobs":[{"submit":0,"run":1,"est":1,"procs":1},]}`, false},
	{"trailing junk", `{"max_procs":4,"jobs":[{"submit":0,"run":1,"est":1,"procs":1}]} junk`, false},
	{"second value", `{"max_procs":4,"jobs":[{"submit":0,"run":1,"est":1,"procs":1}]}{}`, false},
	{"truncated", `{"max_procs":4,"jobs":[{"submit":0,"run":1,"est":1,"pro`, false},
	{"top-level null", `null`, false},
	{"top-level array", `[]`, false},
	{"empty", ``, false},
}

// diffSimRequests compares two decoded simulate requests the strict way:
// floats by bit pattern and the jobs' nil-ness too.
func diffSimRequests(got, want *SimulateRequest) string {
	feq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case got.Policy != want.Policy || got.Backfill != want.Backfill || got.Conservative != want.Conservative ||
		got.MaxProcs != want.MaxProcs || got.Inspector != want.Inspector || got.Seed != want.Seed:
		return fmt.Sprintf("scalars %+v, want %+v", got, want)
	case len(got.Jobs) != len(want.Jobs) || (got.Jobs == nil) != (want.Jobs == nil):
		return fmt.Sprintf("jobs len %d nil %v, want len %d nil %v", len(got.Jobs), got.Jobs == nil, len(want.Jobs), want.Jobs == nil)
	}
	for i := range got.Jobs {
		g, w := got.Jobs[i], want.Jobs[i]
		if !feq(g.Submit, w.Submit) || !feq(g.Run, w.Run) || !feq(g.Est, w.Est) || g.Procs != w.Procs {
			return fmt.Sprintf("jobs[%d] %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// checkDecodeSimulate holds DecodeSimulate to its contract on one body,
// decoding into a fresh request and into a used one, and reports whether it
// took the body.
func checkDecodeSimulate(t *testing.T, body []byte) (canonical bool) {
	t.Helper()
	var want SimulateRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	used := &SimulateRequest{Policy: "x", Backfill: true, Conservative: true, MaxProcs: 7, Inspector: "y", Seed: 7,
		Jobs: []SimJob{{Submit: 7, Run: 7, Est: 7, Procs: 7}, {Submit: 7, Run: 7, Est: 7, Procs: 7}}}
	for _, got := range []*SimulateRequest{{}, used} {
		switch err := DecodeSimulate(body, got); {
		case err == nil:
			if wantErr != nil {
				t.Fatalf("DecodeSimulate accepted %q, encoding/json says %v", body, wantErr)
			}
			if d := diffSimRequests(got, &want); d != "" {
				t.Fatalf("DecodeSimulate(%q): %s", body, d)
			}
			canonical = true
		case err != ErrNotCanonical:
			t.Fatalf("DecodeSimulate(%q) = %v, the only error is ErrNotCanonical", body, err)
		case canonical:
			t.Fatalf("DecodeSimulate(%q) took the body into a fresh request and not into a used one", body)
		}
	}
	return canonical
}

// TestDecodeSimulateTable runs the seed corpus deterministically: each body
// is taken by the decoder the table says, decodes to what encoding/json
// decodes, and is answered as the encoding/json-only route answers it.
func TestDecodeSimulateTable(t *testing.T) {
	rp := newRoutePair(t)
	for _, c := range simDecodeCases {
		t.Run(c.name, func(t *testing.T) {
			if got := checkDecodeSimulate(t, []byte(c.body)); got != c.canonical {
				t.Fatalf("DecodeSimulate took the body: %v, want %v", got, c.canonical)
			}
			rp.check(t, "/v1/simulate", []byte(c.body), c.canonical)
		})
	}
}

// TestDecodeSimulateMutants cuts a benchmark-shaped body at every length and
// flips each of its bits: every mutant is answered, error text included, as
// the encoding/json-only route answers it.
func TestDecodeSimulateMutants(t *testing.T) {
	rp := newRoutePair(t)
	mutants.Each(benchShapedSimBody(4, 3), func(m []byte) {
		rp.check(t, "/v1/simulate", m, checkDecodeSimulate(t, m))
	})
}

func TestDecodeSimulateShortRead(t *testing.T) {
	rp := newRoutePair(t)
	rp.checkShortReads(t, "/v1/simulate", benchShapedSimBody(6, 4))
}

// TestDecodeSimulateBenchCorpus: the bodies the repository's benchmark sends
// all take the single-pass decoder — 19-digit seeds included — and reuse
// the jobs' backing array without allocating for it.
func TestDecodeSimulateBenchCorpus(t *testing.T) {
	var req SimulateRequest
	for seed := int64(0); seed < 64; seed++ {
		body := benchShapedSimBody(seed, 128)
		if err := DecodeSimulate(body, &req); err != nil {
			t.Fatalf("benchmark body %d not canonical: %.200s", seed, body)
		}
	}
	body := benchShapedSimBody(1, 128)
	jobs := &req.Jobs[0]
	// Policy and Inspector are the two string conversions left.
	if n := testing.AllocsPerRun(50, func() { DecodeSimulate(body, &req) }); n > 2 {
		t.Errorf("warm DecodeSimulate allocates %v times", n)
	}
	if &req.Jobs[0] != jobs {
		t.Error("DecodeSimulate did not reuse the jobs' backing array")
	}
}

// FuzzDecodeSimulate is the differential oracle on arbitrary bytes: whenever
// DecodeSimulate takes a body, encoding/json takes it too and every field is
// equal; whenever it steps aside, the route's answer is still the
// encoding/json-only route's.
func FuzzDecodeSimulate(f *testing.F) {
	for _, c := range simDecodeCases {
		f.Add([]byte(c.body))
	}
	rp := newRoutePair(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rp.check(t, "/v1/simulate", body, checkDecodeSimulate(t, body))
	})
}

// TestSimulateOverflow: a schedule whose times overflow float64 has no JSON
// response; the route says so with a 400 instead of an empty 200.
func TestSimulateOverflow(t *testing.T) {
	h := testHandler(t)
	defer h.Close()
	rec := postSimulate(t, h, overflowBody)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "makespan is +Inf") {
		t.Fatalf("status %d, body %q; want 400 naming the makespan overflow", rec.Code, rec.Body)
	}
	if v := metricValue(t, scrape(t, h), "schedinspector_http_requests_total", `{code="400",route="/v1/simulate"}`); v != 1 {
		t.Errorf("simulate 400 counter %v", v)
	}
}
