package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestAppendInspectResponseMatchesEncodingJSON: the hand-rolled verdict
// bytes are json.Encoder's, byte for byte — on the values where its float
// format switches and on a million seeded probabilities.
func TestAppendInspectResponseMatchesEncodingJSON(t *testing.T) {
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	var got []byte
	check := func(resp InspectResponse) {
		t.Helper()
		want.Reset()
		if err := enc.Encode(resp); err != nil {
			t.Fatal(err)
		}
		if got = appendInspectResponse(got[:0], resp); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%+v: encoded %q, encoding/json %q", resp, got, want.Bytes())
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-7, 9.999e-7, 1e-6, math.Nextafter(1e-6, 0), 1.0000001e-6,
		math.SmallestNonzeroFloat64, math.Nextafter(1, 0), math.Nextafter(0.1, 1), 1.0 / 3,
		1e-10, 1.5e-100, 1e20, 1e21, math.Nextafter(1e21, 0), 1.5e+100, math.MaxFloat64, -2.5e-9,
	} {
		check(InspectResponse{Reject: true, RejectProb: f})
		check(InspectResponse{Reject: false, RejectProb: f})
	}
	rng := rand.New(rand.NewSource(20260930))
	n := 1_000_000
	if testing.Short() {
		n = 50_000
	}
	for i := 0; i < n; i++ {
		f := rng.Float64()
		if i%4 == 0 {
			f *= math.Pow(10, -float64(rng.Intn(12))) // probabilities near 0 are where 'e' starts
		}
		check(InspectResponse{Reject: i%2 == 0, RejectProb: f})
	}
}

// TestInspectNonFiniteProbKeepsEncodingJSON: a NaN or infinite probability
// has no JSON form. The route leaves those to json.Encoder, whose refusal —
// the JSON content type, status 200 and no body — stays the behaviour.
func TestInspectNonFiniteProbKeepsEncodingJSON(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		resp := InspectResponse{RejectProb: f}
		want := httptest.NewRecorder()
		writeJSON(want, resp)

		got := httptest.NewRecorder()
		new(requestScratch).writeResponse(got, resp)
		if got.Code != http.StatusOK || got.Body.Len() != 0 || want.Body.Len() != 0 ||
			got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Errorf("%v: wrote %d %q (%q), encoding/json path %d %q (%q)", f, got.Code, got.Body,
				got.Header().Get("Content-Type"), want.Code, want.Body, want.Header().Get("Content-Type"))
		}
	}
}
