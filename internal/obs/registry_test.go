package obs

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Requests served.", nil)
	c.Inc()
	c.Add(2)
	out := expose(t, r)
	want := "# HELP requests_total Requests served.\n# TYPE requests_total counter\nrequests_total 3\n"
	if out != want {
		t.Errorf("exposition:\n%q\nwant:\n%q", out, want)
	}
	if c.Value() != 3 {
		t.Errorf("counter value %v", c.Value())
	}
}

func TestLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	// Two series of one family plus an unrelated gauge; families render
	// sorted by name, HELP/TYPE once per family.
	r.Counter("http_requests_total", "By route.", Labels{"route": "/a", "code": "200"}).Add(5)
	r.Counter("http_requests_total", "By route.", Labels{"route": "/b", "code": "500"}).Inc()
	g := r.Gauge("build_info", "", Labels{"version": "1"})
	g.Set(1)
	out := expose(t, r)
	wantLines := []string{
		"# HELP http_requests_total By route.",
		"# TYPE http_requests_total counter",
		`http_requests_total{code="200",route="/a"} 5`,
		`http_requests_total{code="500",route="/b"} 1`,
		"# TYPE build_info gauge",
		`build_info{version="1"} 1`,
	}
	for _, l := range wantLines {
		if !strings.Contains(out, l+"\n") {
			t.Errorf("missing line %q in:\n%s", l, out)
		}
	}
	if strings.Index(out, "build_info") > strings.Index(out, "http_requests_total") {
		t.Errorf("families not sorted by name:\n%s", out)
	}
	if strings.Count(out, "# TYPE http_requests_total") != 1 {
		t.Errorf("TYPE repeated per series:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", "", Labels{"path": "a\\b\"c\nd"}).Set(1)
	out := expose(t, r)
	want := `g{path="a\\b\"c\nd"} 1`
	if !strings.Contains(out, want+"\n") {
		t.Errorf("escaping: got\n%s\nwant line %q", out, want)
	}
}

func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "line1\nline2 \\ end", nil)
	out := expose(t, r)
	if !strings.Contains(out, `# HELP c_total line1\nline2 \\ end`+"\n") {
		t.Errorf("help escaping:\n%s", out)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("temp", "", nil)
	g.Set(3)
	if g.Value() != 3 {
		t.Errorf("gauge %v", g.Value())
	}
	if out := expose(t, r); !strings.Contains(out, "temp 3\n") {
		t.Errorf("gauge exposition:\n%s", out)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1, 10}, Labels{"route": "/x"})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	out := expose(t, r)
	wantLines := []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{route="/x",le="0.1"} 1`,
		`lat_seconds_bucket{route="/x",le="1"} 3`,
		`lat_seconds_bucket{route="/x",le="10"} 4`,
		`lat_seconds_bucket{route="/x",le="+Inf"} 5`,
		`lat_seconds_sum{route="/x"} 56.05`,
		`lat_seconds_count{route="/x"} 5`,
	}
	for _, l := range wantLines {
		if !strings.Contains(out, l+"\n") {
			t.Errorf("missing %q in:\n%s", l, out)
		}
	}
	if h.Count() != 5 || h.Sum() != 56.05 {
		t.Errorf("count %d sum %v", h.Count(), h.Sum())
	}
}

func TestHistogramUnlabeled(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1}, nil)
	h.Observe(0.5)
	out := expose(t, r)
	for _, l := range []string{`h_bucket{le="1"} 1`, `h_bucket{le="+Inf"} 1`, "h_sum 0.5", "h_count 1"} {
		if !strings.Contains(out, l+"\n") {
			t.Errorf("missing %q in:\n%s", l, out)
		}
	}
}

func TestHistogramBoundaryExact(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2}, nil)
	h.Observe(1) // le="1" is inclusive
	h.Observe(2)
	out := expose(t, r)
	if !strings.Contains(out, `h_bucket{le="1"} 1`+"\n") || !strings.Contains(out, `h_bucket{le="2"} 2`+"\n") {
		t.Errorf("boundary buckets:\n%s", out)
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("c_total", "", nil)
	mustPanic("duplicate", func() { r.Counter("c_total", "", nil) })
	mustPanic("type conflict", func() { r.Gauge("c_total", "", nil) })
	mustPanic("bad metric name", func() { r.Counter("1bad", "", nil) })
	mustPanic("bad label name", func() { r.Counter("ok_total", "", Labels{"1bad": "v"}) })
	mustPanic("negative counter add", func() { r.Counter("n_total", "", nil).Add(-1) })
	mustPanic("bad buckets", func() { r.Histogram("h", "", []float64{2, 1}, nil) })
	// Same name with different labels is one family, not a duplicate.
	r.Counter("c_total", "", Labels{"x": "1"})
}

func TestBucketHelpers(t *testing.T) {
	if got := LinearBuckets(0, 0.25, 4); got[3] != 0.75 {
		t.Errorf("linear %v", got)
	}
	if got := ExponentialBuckets(1, 10, 3); got[2] != 100 {
		t.Errorf("exponential %v", got)
	}
	if n := len(DefBuckets()); n != 11 {
		t.Errorf("def buckets %d", n)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", nil).Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "c_total 1\n") {
		t.Errorf("body:\n%s", rec.Body)
	}
}

// TestConcurrentObservation exercises the lock-free hot paths under the
// race detector (the Makefile verify path runs this package with -race).
func TestConcurrentObservation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", nil)
	g := r.Gauge("g", "", nil)
	h := r.Histogram("h", "", []float64{1, 2, 4}, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 5))
			}
		}(w)
	}
	// Render concurrently with observation.
	done := make(chan struct{})
	go func() {
		defer close(done)
		var b strings.Builder
		for i := 0; i < 50; i++ {
			b.Reset()
			r.WriteProm(&b)
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 16000 {
		t.Errorf("counter %v after concurrent increments", c.Value())
	}
	if h.Count() != 16000 {
		t.Errorf("histogram count %d", h.Count())
	}
}

// TestConcurrentRegistration races series creation (what ProcSampler and
// build_info do at runtime) against renders and observations: registering
// while /metrics is being scraped must be safe and lose no series.
func TestConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				g := r.Gauge(fmt.Sprintf("g_%d_%d", w, i), "", nil)
				g.Set(float64(i))
				r.Counter(fmt.Sprintf("c_%d_total", w), "", Labels{"i": fmt.Sprint(i)}).Inc()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var b strings.Builder
		for i := 0; i < 50; i++ {
			b.Reset()
			r.WriteProm(&b)
		}
	}()
	wg.Wait()
	<-done
	var b strings.Builder
	r.WriteProm(&b)
	out := b.String()
	for w := 0; w < 8; w++ {
		if !strings.Contains(out, fmt.Sprintf("g_%d_99 99\n", w)) {
			t.Errorf("worker %d's last gauge missing from render", w)
		}
	}
}
