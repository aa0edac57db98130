package fleet

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"schedinspector/internal/mutants"
	"schedinspector/internal/obs"
)

// buildTestRegistry assembles a registry covering every shape obs can
// render: bare and labeled counters, gauges, a scrape-time GaugeFunc,
// histograms with custom buckets (including empty and non-finite-sum
// cases), and label values that need escaping.
func buildTestRegistry(rng *rand.Rand) *obs.Registry {
	r := obs.NewRegistry()
	c := r.Counter("fleet_test_requests_total", "Requests served.", nil)
	c.Add(float64(rng.Intn(100000)))
	for _, code := range []string{"200", "500"} {
		cc := r.Counter("fleet_test_coded_total", "By code.", obs.Labels{"code": code, "route": "/v1/inspect"})
		cc.Add(float64(rng.Intn(1000)))
	}
	g := r.Gauge("fleet_test_depth", "A gauge.", nil)
	g.Set(rng.Float64()*1000 - 500)
	r.GaugeFunc("fleet_test_ratio", "Scrape-time derived gauge.", nil,
		func() float64 { return 0.25 })
	esc := r.Gauge("fleet_test_escaped", "Help with a \\ backslash\nand newline.",
		obs.Labels{"path": `C:\tmp "quoted"` + "\nnewline"})
	esc.Set(42)
	h := r.Histogram("fleet_test_latency_seconds", "Latency.", obs.DefBuckets(), nil)
	for i := 0; i < 200; i++ {
		h.Observe(rng.ExpFloat64() / 10)
	}
	hl := r.Histogram("fleet_test_sized", "Labeled histogram.",
		obs.ExponentialBuckets(1, 2, 6), obs.Labels{"kind": "wave"})
	for i := 0; i < 50; i++ {
		hl.Observe(float64(rng.Intn(100)))
	}
	r.Histogram("fleet_test_empty_seconds", "Histogram with no observations.",
		obs.LinearBuckets(0.5, 0.5, 3), nil)
	return r
}

func render(t *testing.T, r *obs.Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	return buf.Bytes()
}

// TestParsePromRoundTrip is the parser's oracle: everything the obs
// registry renders must parse and re-render byte-for-byte.
func TestParsePromRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		src := render(t, buildTestRegistry(rand.New(rand.NewSource(seed))))
		s, err := ParseProm(src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
		}
		var out bytes.Buffer
		if _, err := s.WriteTo(&out); err != nil {
			t.Fatalf("seed %d: render: %v", seed, err)
		}
		if !bytes.Equal(src, out.Bytes()) {
			t.Fatalf("seed %d: round trip diverged\n--- original ---\n%s--- reparsed ---\n%s",
				seed, src, out.Bytes())
		}
	}
}

func TestParsePromContents(t *testing.T) {
	src := render(t, buildTestRegistry(rand.New(rand.NewSource(1))))
	s, err := ParseProm(src)
	if err != nil {
		t.Fatal(err)
	}

	f := s.Family("fleet_test_coded_total")
	if f == nil || f.Type != "counter" || len(f.Samples) != 2 {
		t.Fatalf("coded_total family: %+v", f)
	}
	for _, sm := range f.Samples {
		if sm.Labels["route"] != "/v1/inspect" {
			t.Errorf("labels lost: %+v", sm.Labels)
		}
	}

	esc := s.Family("fleet_test_escaped")
	if esc == nil || len(esc.Samples) != 1 {
		t.Fatalf("escaped family: %+v", esc)
	}
	if got := esc.Samples[0].Labels["path"]; got != `C:\tmp "quoted"`+"\nnewline" {
		t.Errorf("escaped label value mangled: %q", got)
	}
	if !strings.Contains(esc.Help, "\\ backslash\nand newline") {
		t.Errorf("HELP unescaping mangled: %q", esc.Help)
	}

	hf := s.Family("fleet_test_latency_seconds")
	if hf == nil || hf.Type != "histogram" || len(hf.Histograms) != 1 {
		t.Fatalf("latency family: %+v", hf)
	}
	h := hf.Histograms[0]
	if !math.IsInf(h.Buckets[len(h.Buckets)-1].Upper, 1) {
		t.Errorf("+Inf bucket not last: %+v", h.Buckets)
	}
	if h.Count != h.Buckets[len(h.Buckets)-1].CumCount || h.Count != 200 {
		t.Errorf("count mismatch: %d vs %d", h.Count, h.Buckets[len(h.Buckets)-1].CumCount)
	}
	uppers, cum := h.Uppers()
	if len(uppers) != len(obs.DefBuckets()) || len(cum) != len(uppers)+1 {
		t.Fatalf("Uppers shape: %d/%d", len(uppers), len(cum))
	}
	if q := obs.HistQuantile(0.5, uppers, cum); math.IsNaN(q) || q <= 0 {
		t.Errorf("median from parsed buckets: %v", q)
	}

	if e := s.Family("fleet_test_empty_seconds"); e == nil || e.Histograms[0].Count != 0 {
		t.Errorf("empty histogram: %+v", e)
	}
}

// TestParsePromTruncated cuts a rendered exposition at every byte offset
// and flips every bit of it (mutants.Each): a cut that still parses must be
// a clean line boundary that does not tear a histogram, and a mid-line cut
// must report ErrTruncated; a flip parses or fails with a *ParseError.
func TestParsePromTruncated(t *testing.T) {
	src := render(t, buildTestRegistry(rand.New(rand.NewSource(3))))
	mutants.Each(src, func(m []byte) {
		_, err := ParseProm(m)
		var pe *ParseError
		if err != nil && !errors.As(err, &pe) {
			t.Fatalf("%d-byte mutant: error %v is not a *ParseError", len(m), err)
		}
		if prefix := len(m) < len(src); prefix && len(m) > 0 && m[len(m)-1] != '\n' && !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d (mid-line): error %v, want ErrTruncated", len(m), err)
		}
	})
}

func TestParsePromMalformed(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"bad name", "1leading_digit 5\n"},
		{"no value", "metric_name\n"},
		{"bad value", "metric_name abc\n"},
		{"bad escape", `m{l="\q"} 1` + "\n"},
		{"unterminated labels", `m{l="v" 1` + "\n"},
		{"duplicate label", `m{l="a",l="b"} 1` + "\n"},
		{"retyped family", "# TYPE m counter\n# TYPE m gauge\nm 1\n"},
		{"unknown type", "# TYPE m flurble\nm 1\n"},
		{"bucket without le", "# TYPE h histogram\nh_bucket 3\nh_sum 1\nh_count 3\n"},
		{"missing +Inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_sum 1\nh_count 3\n"},
		{"missing count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\n"},
		{"count mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n"},
		{"non-cumulative", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n"},
		{"fractional bucket count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1.5\nh_sum 1\nh_count 1\n"},
		{"bare histogram sample", "# TYPE h histogram\nh 3\n"},
		{"type after samples", "m 1\n# TYPE m counter\n"},
	}
	for _, tc := range cases {
		_, err := ParseProm([]byte(tc.in))
		if err == nil {
			t.Errorf("%s: parsed %q", tc.name, tc.in)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%s: error %v is not a *ParseError", tc.name, err)
		}
	}
}

// TestParsePromLabelNames: WriteTo renders labels through obs, which panics
// on a label name it would not register, so ParseProm must reject every
// such name first and accept (and render) every name obs takes.
func TestParsePromLabelNames(t *testing.T) {
	for _, name := range []string{"", "1a", "a-b", "a.b", "é", "a b"} {
		if _, err := ParseProm([]byte("m{" + name + `="v"} 1` + "\n")); err == nil {
			t.Errorf("label name %q parsed", name)
		}
	}
	src := []byte(`m{_:a1="x",Z="y"} 1` + "\n")
	s, err := ParseProm(src)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := s.WriteTo(&out); err != nil || out.String() != `m{Z="y",_:a1="x"} 1`+"\n" {
		t.Errorf("rendered %q, %v", out.String(), err)
	}
}

func TestParsePromTolerated(t *testing.T) {
	// Shapes a strict-but-interoperable parser should accept: comments,
	// blank lines, timestamps, untyped samples, non-finite values.
	in := "# a free comment\n\nm1 5 1712345678\nm2{a=\"b\"} +Inf\nm3 NaN\n"
	s, err := ParseProm([]byte(in))
	if err != nil {
		t.Fatalf("tolerated shapes rejected: %v", err)
	}
	if f := s.Family("m2"); f == nil || !math.IsInf(f.Samples[0].Value, 1) {
		t.Errorf("m2: %+v", s.Family("m2"))
	}
	if f := s.Family("m3"); f == nil || !math.IsNaN(f.Samples[0].Value) {
		t.Errorf("m3: %+v", s.Family("m3"))
	}
	if len(s.Families) != 3 {
		t.Errorf("families: %d", len(s.Families))
	}
	// Empty input is a valid, empty exposition.
	if s, err := ParseProm(nil); err != nil || len(s.Families) != 0 {
		t.Errorf("empty input: %v, %+v", err, s)
	}
}
