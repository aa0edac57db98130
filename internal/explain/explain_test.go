package explain

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"schedinspector/internal/obs"
)

// fixture is a small handcrafted flight trace: a header, four decisions
// (deliberately out of (Epoch,Traj,Seq) order, as a parallel rollout's ring
// would produce them), one span, a blank line and an unknown kind.
const fixture = `{"kind":"explain_header","mode":"manual","features":["fa","fb"],"max_rejections":72}
{"kind":"decision","epoch":1,"traj":1,"seq":0,"t":200,"job":7,"wait":60,"procs":4,"est":600,"rejections":0,"max_rejections":72,"queue":3,"free":16,"total":64,"util":0.75,"features":[0.2,0.4],"logits":[0.1,-0.1],"probs":[0.55,0.45],"action":0,"sampled":true,"rejected":false}
{"kind":"decision","traj":0,"seq":1,"t":150,"job":7,"wait":30,"procs":4,"est":600,"rejections":1,"max_rejections":72,"queue":2,"free":8,"total":64,"util":0.875,"features":[0.4,0.8],"logits":[-0.3,0.3],"probs":[0.35,0.65],"action":1,"sampled":true,"rejected":true}
{"kind":"span","id":12,"parent":3,"name":"decision","wall0":10,"wall1":20,"t0":100,"t1":100,"attrs":[{"k":"action","s":"reject"}]}

{"kind":"future_thing","whatever":1}
{"kind":"decision","traj":0,"seq":0,"t":100,"job":7,"wait":10,"procs":4,"est":600,"rejections":0,"max_rejections":72,"queue":2,"free":32,"total":64,"util":0.5,"features":[0.1,0.2],"logits":[0.5,-0.5],"probs":[0.73,0.27],"action":1,"sampled":true,"rejected":true}
{"kind":"decision","traj":0,"seq":2,"t":300,"job":9,"wait":5,"procs":8,"est":120,"rejections":0,"max_rejections":72,"queue":1,"free":40,"total":64,"util":0.375,"features":[0.3,0.1],"logits":[0.9,-0.9],"probs":[0.86,0.14],"action":0,"sampled":false,"rejected":false}
`

func parseFixture(t *testing.T) *Trace {
	t.Helper()
	tr, err := ReadTrace(strings.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestReadTrace(t *testing.T) {
	tr := parseFixture(t)
	if tr.Header == nil || tr.Header.Mode != "manual" || len(tr.Header.Features) != 2 {
		t.Fatalf("header %+v", tr.Header)
	}
	if len(tr.Records) != 4 {
		t.Fatalf("%d records, want 4", len(tr.Records))
	}
	if len(tr.Spans) != 1 || tr.Spans[0].ID != 12 || tr.Spans[0].Attrs[0].Str != "reject" {
		t.Fatalf("spans %+v", tr.Spans)
	}
	// Sorted by (Epoch, Traj, Seq) regardless of file order.
	want := [][3]int{{0, 0, 0}, {0, 0, 1}, {0, 0, 2}, {1, 1, 0}}
	for i, r := range tr.Records {
		if got := [3]int{r.Epoch, r.Traj, r.Seq}; got != want[i] {
			t.Errorf("record %d: key %v, want %v", i, got, want[i])
		}
	}
}

func TestReadTraceBadLine(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("{broken\n")); err == nil {
		t.Fatal("malformed line should error")
	}
}

func TestJobTimelineAndWindow(t *testing.T) {
	tr := parseFixture(t)
	tl := tr.JobTimeline(7)
	if len(tl) != 3 {
		t.Fatalf("job 7 timeline: %d records, want 3", len(tl))
	}
	for i := 1; i < len(tl); i++ {
		a, b := tl[i-1], tl[i]
		if a.Epoch > b.Epoch || (a.Epoch == b.Epoch && a.Traj == b.Traj && a.Seq > b.Seq) {
			t.Errorf("timeline out of order at %d", i)
		}
	}
	win := tr.Window(100, 250)
	if len(win) != 3 {
		t.Fatalf("window [100,250): %d records, want 3", len(win))
	}
	if out := tr.Window(300.5, 300.6); len(out) != 0 {
		t.Errorf("empty window returned %d records", len(out))
	}
}

func TestTopRejected(t *testing.T) {
	tr := parseFixture(t)
	top := tr.TopRejected(10)
	if len(top) != 2 {
		t.Fatalf("%d jobs, want 2", len(top))
	}
	if top[0].JobID != 7 || top[0].Rejects != 2 || top[0].Decisions != 3 || top[0].MaxRejections != 1 {
		t.Errorf("top job %+v", top[0])
	}
	if top[1].JobID != 9 || top[1].Rejects != 0 {
		t.Errorf("second job %+v", top[1])
	}
	wantProb := (0.45 + 0.65 + 0.27) / 3
	if math.Abs(top[0].MeanProb-wantProb) > 1e-12 {
		t.Errorf("mean prob %v, want %v", top[0].MeanProb, wantProb)
	}
	if got := tr.TopRejected(1); len(got) != 1 || got[0].JobID != 7 {
		t.Errorf("n=1 truncation: %+v", got)
	}
}

func TestFeatureStats(t *testing.T) {
	tr := parseFixture(t)
	stats, accepts, rejects := tr.FeatureStats()
	if accepts != 2 || rejects != 2 {
		t.Fatalf("accepts %d rejects %d", accepts, rejects)
	}
	if len(stats) != 2 || stats[0].Name != "fa" || stats[1].Name != "fb" {
		t.Fatalf("stats %+v", stats)
	}
	// accepts: features [0.2,0.4] and [0.3,0.1]; rejects: [0.4,0.8] and [0.1,0.2].
	if math.Abs(stats[0].MeanAccept-0.25) > 1e-12 || math.Abs(stats[0].MeanReject-0.25) > 1e-12 {
		t.Errorf("fa means %+v", stats[0])
	}
	if math.Abs(stats[1].MeanAccept-0.25) > 1e-12 || math.Abs(stats[1].MeanReject-0.5) > 1e-12 {
		t.Errorf("fb means %+v", stats[1])
	}
	if math.Abs(stats[1].Delta-0.25) > 1e-12 {
		t.Errorf("fb delta %v", stats[1].Delta)
	}
}

func TestFeatureCDFs(t *testing.T) {
	// A record whose length disagrees with the header is skipped.
	tr, err := ReadTrace(strings.NewReader(fixture +
		`{"kind":"decision","traj":2,"seq":0,"features":[9,9,9],"rejected":true}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	cdfs := tr.FeatureCDFs()
	if len(cdfs) != 2 || cdfs[0].Name != "fa" || cdfs[1].Name != "fb" {
		t.Fatalf("cdfs %+v", cdfs)
	}
	for _, c := range cdfs {
		if c.Total.N() != 4 || c.Rejected.N() != 2 {
			t.Errorf("%s: %d total / %d rejected observations, want 4 / 2", c.Name, c.Total.N(), c.Rejected.N())
		}
		if c.Total.At(1) != 1 || c.Rejected.At(1) != 1 {
			t.Errorf("%s: CDFs do not reach 1", c.Name)
		}
	}
	// rejects carry fb = 0.8 and 0.2.
	if got := cdfs[1].Rejected.Quantile(1); got != 0.8 {
		t.Errorf("fb max rejected %v, want 0.8", got)
	}

	empty, err := ReadTrace(strings.NewReader(`{"kind":"explain_header","features":["fa","fb"]}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	cdfs = empty.FeatureCDFs()
	if len(cdfs) != 2 || cdfs[0].Total.N() != 0 || cdfs[1].Rejected.N() != 0 {
		t.Fatalf("empty trace cdfs %+v", cdfs)
	}
}

func TestRejectByUtilization(t *testing.T) {
	tr := parseFixture(t)
	buckets := tr.RejectByUtilization(4)
	if len(buckets) != 4 {
		t.Fatalf("%d buckets", len(buckets))
	}
	// utils: 0.5, 0.875, 0.75, 0.375 → buckets 2, 3, 3, 1.
	wantDec := []int{0, 1, 1, 2}
	wantRej := []int{0, 0, 1, 1}
	for i, b := range buckets {
		if b.Decisions != wantDec[i] || b.Rejects != wantRej[i] {
			t.Errorf("bucket %d: %d/%d decisions/rejects, want %d/%d",
				i, b.Decisions, b.Rejects, wantDec[i], wantRej[i])
		}
	}
	if !math.IsNaN(buckets[0].Rate()) {
		t.Error("empty bucket rate should be NaN")
	}
	if buckets[3].Rate() != 0.5 {
		t.Errorf("bucket 3 rate %v", buckets[3].Rate())
	}
}

func TestFeatureNamesFallback(t *testing.T) {
	tr, err := ReadTrace(strings.NewReader(
		`{"kind":"decision","traj":0,"seq":0,"t":1,"job":1,"features":[1,2,3],"probs":[0.5,0.5]}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	names := tr.FeatureNames()
	if len(names) != 3 || names[0] != "f0" || names[2] != "f2" {
		t.Errorf("fallback names %v", names)
	}
}

// Golden renderer outputs: the analysis layer's whole value is that the
// same trace file always produces the same bytes, so the renderings are
// pinned verbatim. Tabwriter pads rows to the bar column's width; the
// comparison strips that trailing padding so the goldens survive editors
// that trim trailing whitespace.

func stripTrailing(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	return strings.Join(lines, "\n")
}

func checkGolden(t *testing.T, name, got, want string) {
	t.Helper()
	if stripTrailing(got) != stripTrailing(want) {
		t.Errorf("%s:\n%s\nwant:\n%s", name, got, want)
	}
}

const goldenFeatureStats = `4 decisions (2 accepted, 2 rejected)
feature  mean(accept)  mean(reject)  delta
fa       0.2500        0.2500        +0.0000
fb       0.2500        0.5000        +0.2500  ####################
`

const goldenTopRejected = `job  rejects  decisions  max streak  mean p(rej)
7    2        3          1           0.457
9    0        1          0           0.140
`

const goldenRecords = `epoch  traj  seq  t    job  wait  procs  est  rej   queue  util  p(rej)  verdict
0      0     0    100  7    10    4      600  0/72  2      0.50  0.270   reject
0      0     1    150  7    30    4      600  1/72  2      0.88  0.650   reject
0      0     2    300  9    5     8      120  0/72  1      0.38  0.140   accept*
1      1     0    200  7    60    4      600  0/72  3      0.75  0.450   accept
`

const goldenRejectPlot = `util     decisions  rejects  rate
0.0-0.2  0          0        -
0.2-0.5  1          0        0.000
0.5-0.8  1          1        1.000  ########################################
0.8-1.0  2          1        0.500  ####################
`

const goldenFeatureCDFs = `4 decisions, 2 rejected (ratio 0.50)
feature  CDF@0.25 total/rej  CDF@0.5 total/rej  CDF@0.75 total/rej  max rejected x
fa       0.50/0.50           1.00/1.00          1.00/1.00           0.40
fb       0.50/0.50           0.75/0.50          0.75/0.50           0.80
`

const goldenFeatureCDFsNoRejects = `1 decisions, 0 rejected (ratio 0.00)
feature  CDF@0.25 total/rej  CDF@0.5 total/rej  CDF@0.75 total/rej  max rejected x
fa       -                   -                  -                   (never rejected)
`

func TestGoldenRenderings(t *testing.T) {
	tr := parseFixture(t)

	var b strings.Builder
	stats, acc, rej := tr.FeatureStats()
	if err := WriteFeatureStats(&b, stats, acc, rej); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "feature stats", b.String(), goldenFeatureStats)

	b.Reset()
	if err := WriteTopRejected(&b, tr.TopRejected(0)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "top rejected", b.String(), goldenTopRejected)

	b.Reset()
	if err := WriteRecords(&b, tr.Records); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "records", b.String(), goldenRecords)

	b.Reset()
	if err := WriteRejectByUtilization(&b, tr.RejectByUtilization(4)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "reject plot", b.String(), goldenRejectPlot)

	b.Reset()
	if err := WriteFeatureCDFs(&b, tr.FeatureCDFs()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "feature cdfs", b.String(), goldenFeatureCDFs)

	accepted, err := ReadTrace(strings.NewReader(`{"kind":"explain_header","features":["fa"]}
{"kind":"decision","features":[0.5],"rejected":false}
`))
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := WriteFeatureCDFs(&b, accepted.FeatureCDFs()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "feature cdfs without rejects", b.String(), goldenFeatureCDFsNoRejects)
}

// TestRoundTrip pins that what the flight recorder writes, ReadTrace reads
// back verbatim from its JSONL rendering.
func TestRoundTrip(t *testing.T) {
	var ftrace bytes.Buffer
	ring := obs.NewTraceRing(8)
	ring.SetSink(&ftrace)
	ring.SetMeta([]string{"x", "y"}, "test", 72)
	sp := obs.StartSpan("decision", 5, 3, 100)
	sp.End(110)
	ring.EmitSpan(&sp)
	ring.EmitDecision(&obs.ExplainRecord{
		Traj: 2, Seq: 4, Time: 110, JobID: 17, Features: []float64{1, 2},
		Logits: []float64{0.5, -0.5}, Probs: []float64{0.7, 0.3}, Rejected: true,
	})
	if err := ring.Flush(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ConvertFTrace(&ftrace, &buf); err != nil {
		t.Fatal(err)
	}

	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header == nil || tr.Header.Mode != "test" {
		t.Fatalf("header %+v", tr.Header)
	}
	if len(tr.Spans) != 1 || !reflect.DeepEqual(tr.Spans[0], sp) {
		t.Fatalf("spans %+v, want %+v", tr.Spans, sp)
	}
	if len(tr.Records) != 1 {
		t.Fatalf("records %+v", tr.Records)
	}
	r := tr.Records[0]
	if r.JobID != 17 || r.Traj != 2 || r.Seq != 4 || !r.Rejected || r.Features[1] != 2 {
		t.Errorf("record %+v", r)
	}
}
