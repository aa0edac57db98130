package serve

import (
	"math"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"schedinspector/internal/obs"
)

func scrape(t *testing.T, h *Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	return rec.Body.String()
}

// metricValue extracts one sample value from an exposition page; labels is
// the exact rendered label set (or "" for none).
func metricValue(t *testing.T, page, name, labels string) float64 {
	t.Helper()
	prefix := name + labels + " "
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, prefix) {
			v, err := strconv.ParseFloat(line[len(prefix):], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no sample %s%s in:\n%s", name, labels, page)
	return 0
}

func TestMetricsReflectTraffic(t *testing.T) {
	h := testHandler(t)

	// Fresh handler: decision counters exist at zero.
	page := scrape(t, h)
	if v := metricValue(t, page, "schedinspector_inspect_decisions_total", `{verdict="accept"}`); v != 0 {
		t.Errorf("accept counter starts at %v", v)
	}
	if v := metricValue(t, page, "schedinspector_model_params", ""); v <= 0 {
		t.Errorf("model params gauge %v", v)
	}

	const n = 30
	for i := 0; i < n; i++ {
		if rec := postInspect(t, h, validRequest()); rec.Code != 200 {
			t.Fatalf("inspect status %d", rec.Code)
		}
	}
	postInspect(t, h, "{not json") // one 400

	page = scrape(t, h)
	ok := metricValue(t, page, "schedinspector_http_requests_total", `{code="200",route="/v1/inspect"}`)
	bad := metricValue(t, page, "schedinspector_http_requests_total", `{code="400",route="/v1/inspect"}`)
	if ok != n || bad != 1 {
		t.Errorf("request counters 200=%v 400=%v, want %d/1", ok, bad, n)
	}
	accepts := metricValue(t, page, "schedinspector_inspect_decisions_total", `{verdict="accept"}`)
	rejects := metricValue(t, page, "schedinspector_inspect_decisions_total", `{verdict="reject"}`)
	if accepts+rejects != n {
		t.Errorf("decision counters %v+%v != %d", accepts, rejects, n)
	}
	ratio := metricValue(t, page, "schedinspector_inspect_reject_ratio", "")
	if want := rejects / n; ratio != want {
		t.Errorf("reject ratio %v, want %v", ratio, want)
	}
	// Latency histogram: count equals inspect requests (200s + the 400).
	cnt := metricValue(t, page, "schedinspector_http_request_duration_seconds_count", `{route="/v1/inspect"}`)
	if cnt != n+1 {
		t.Errorf("latency histogram count %v, want %d", cnt, n+1)
	}
	if !regexp.MustCompile(`schedinspector_http_request_duration_seconds_bucket\{route="/v1/inspect",le="\+Inf"\} ` + strconv.Itoa(n+1)).MatchString(page) {
		t.Errorf("+Inf bucket missing:\n%s", page)
	}
	// Reject-prob histogram saw one observation per decision.
	if c := metricValue(t, page, "schedinspector_inspect_reject_prob_count", ""); c != n {
		t.Errorf("prob histogram count %v", c)
	}
	// Exposition is well-formed: HELP/TYPE precede samples of each family.
	if !strings.Contains(page, "# TYPE schedinspector_http_requests_total counter") ||
		!strings.Contains(page, "# TYPE schedinspector_http_request_duration_seconds histogram") {
		t.Errorf("missing TYPE lines:\n%s", page)
	}
}

func TestScrapeTimeQuantileGauges(t *testing.T) {
	h := testHandler(t)

	// No decisions yet: the quantile gauges render NaN (absent-by-convention),
	// never a fake zero latency.
	page := scrape(t, h)
	if v := metricValue(t, page, "schedinspector_inspect_coalesce_seconds_p99", ""); !math.IsNaN(v) {
		t.Errorf("empty-histogram p99 = %v, want NaN", v)
	}

	for i := 0; i < 20; i++ {
		if rec := postInspect(t, h, validRequest()); rec.Code != 200 {
			t.Fatalf("inspect status %d", rec.Code)
		}
	}
	page = scrape(t, h)
	p50 := metricValue(t, page, "schedinspector_inspect_coalesce_seconds_p50", "")
	p99 := metricValue(t, page, "schedinspector_inspect_coalesce_seconds_p99", "")
	if math.IsNaN(p50) || math.IsNaN(p99) || p50 < 0 || p99 < p50 {
		t.Errorf("coalesce quantiles p50=%v p99=%v", p50, p99)
	}
	if ws50 := metricValue(t, page, "schedinspector_inspect_wave_size_p50", ""); ws50 != 1 {
		t.Errorf("wave-size p50 = %v, want the constant 1", ws50)
	}
	// The gauges must agree with the estimator run over the rendered
	// buckets — same math on both surfaces.
	uppers, cum := h.lockWait.Buckets()
	if est := obs.HistQuantile(0.99, uppers, cum); math.Abs(est-p99) > 1e-9 {
		t.Errorf("gauge p99 %v != estimator %v", p99, est)
	}
}

func TestHealthzInstrumented(t *testing.T) {
	h := testHandler(t)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatal("healthz broken")
	}
	page := scrape(t, h)
	if v := metricValue(t, page, "schedinspector_http_requests_total", `{code="200",route="/healthz"}`); v != 1 {
		t.Errorf("healthz counter %v", v)
	}
}
