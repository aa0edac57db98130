package workload

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestJobValidate(t *testing.T) {
	good := Job{ID: 1, Submit: 0, Run: 10, Est: 20, Procs: 4}
	if err := good.Validate(8); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Job)
	}{
		{"zero procs", func(j *Job) { j.Procs = 0 }},
		{"negative procs", func(j *Job) { j.Procs = -2 }},
		{"procs over cluster", func(j *Job) { j.Procs = 9 }},
		{"negative runtime", func(j *Job) { j.Run = -1 }},
		{"nan runtime", func(j *Job) { j.Run = math.NaN() }},
		{"zero estimate", func(j *Job) { j.Est = 0 }},
		{"inf estimate", func(j *Job) { j.Est = math.Inf(1) }},
		{"negative submit", func(j *Job) { j.Submit = -5 }},
	}
	for _, c := range cases {
		j := good
		c.mut(&j)
		if err := j.Validate(8); err == nil {
			t.Errorf("%s: want error, got nil", c.name)
		}
	}
}

func TestJobAreaRatio(t *testing.T) {
	j := Job{Est: 100, Procs: 4}
	if got := j.Area(); got != 400 {
		t.Errorf("Area = %v, want 400", got)
	}
	if got := j.Ratio(); got != 25 {
		t.Errorf("Ratio = %v, want 25", got)
	}
	// Ratio must not divide by zero even for malformed jobs.
	j.Procs = 0
	if got := j.Ratio(); got != 100 {
		t.Errorf("Ratio with 0 procs = %v, want 100", got)
	}
}

func TestTraceSortAndValidate(t *testing.T) {
	tr := &Trace{Name: "x", MaxProcs: 16, Jobs: []Job{
		{ID: 2, Submit: 10, Run: 1, Est: 1, Procs: 1},
		{ID: 1, Submit: 5, Run: 1, Est: 1, Procs: 1},
		{ID: 3, Submit: 5, Run: 1, Est: 1, Procs: 1},
	}}
	if err := tr.Validate(); err == nil {
		t.Fatal("unsorted trace passed Validate")
	}
	tr.SortBySubmit()
	if err := tr.Validate(); err != nil {
		t.Fatalf("sorted trace failed Validate: %v", err)
	}
	if tr.Jobs[0].ID != 1 || tr.Jobs[1].ID != 3 || tr.Jobs[2].ID != 2 {
		t.Errorf("sort order wrong: %v", []int{tr.Jobs[0].ID, tr.Jobs[1].ID, tr.Jobs[2].ID})
	}
}

func TestTraceWindow(t *testing.T) {
	tr := &Trace{MaxProcs: 4}
	for i := 0; i < 10; i++ {
		tr.Jobs = append(tr.Jobs, Job{ID: i + 1, Submit: float64(100 + i*10), Run: 1, Est: 1, Procs: 1})
	}
	w := tr.Window(3, 4)
	if len(w) != 4 {
		t.Fatalf("window len = %d, want 4", len(w))
	}
	if w[0].Submit != 0 {
		t.Errorf("window not rebased: first submit %v", w[0].Submit)
	}
	if w[3].Submit != 30 {
		t.Errorf("relative submit = %v, want 30", w[3].Submit)
	}
	if w[0].ID != 4 {
		t.Errorf("window start job ID = %d, want 4", w[0].ID)
	}
	// Window must not alias trace storage.
	w[0].Submit = 999
	if tr.Jobs[3].Submit == 999 {
		t.Error("window aliases trace jobs")
	}
	if tr.CanWindow(7, 4) {
		t.Error("CanWindow(7,4) = true for 10 jobs")
	}
	if !tr.CanWindow(6, 4) {
		t.Error("CanWindow(6,4) = false for 10 jobs")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Window did not panic")
		}
	}()
	tr.Window(8, 4)
}

// TestWindowInto: filling a recycled buffer gives Window's jobs, reuses the
// buffer when it is large enough and leaves nothing of the previous window.
func TestWindowInto(t *testing.T) {
	tr := SDSCSP2Like(400, 3)
	buf := tr.WindowInto(nil, 10, 64)
	for _, start := range []int{300, 0, 123} {
		prev := &buf[0]
		buf = tr.WindowInto(buf, start, 64)
		if &buf[0] != prev {
			t.Fatalf("start %d: a 64-job buffer was reallocated for a 64-job window", start)
		}
		if want := tr.Window(start, 64); !reflect.DeepEqual(buf, want) {
			t.Fatalf("start %d: WindowInto differs from Window", start)
		}
	}
	if short := tr.WindowInto(buf, 5, 8); len(short) != 8 || &short[0] != &buf[0] || !reflect.DeepEqual(short, tr.Window(5, 8)) {
		t.Fatal("a shorter window did not reuse the buffer's head")
	}
	if grown := tr.WindowInto(buf[:0:4], 5, 8); len(grown) != 8 || !reflect.DeepEqual(grown, tr.Window(5, 8)) {
		t.Fatal("a short buffer was not grown to the window")
	}
}

func TestTraceSplit(t *testing.T) {
	tr := &Trace{Jobs: make([]Job, 100)}
	if got := tr.Split(0.2); got != 20 {
		t.Errorf("Split(0.2) = %d, want 20", got)
	}
	if got := tr.Split(-1); got != 0 {
		t.Errorf("Split(-1) = %d, want 0", got)
	}
	if got := tr.Split(2); got != 100 {
		t.Errorf("Split(2) = %d, want 100", got)
	}
}

func TestSWFRoundTrip(t *testing.T) {
	orig := SDSCSP2Like(500, 7)
	var buf bytes.Buffer
	if err := WriteSWF(&buf, orig); err != nil {
		t.Fatalf("WriteSWF: %v", err)
	}
	got, err := ParseSWF(&buf, "roundtrip")
	if err != nil {
		t.Fatalf("ParseSWF: %v", err)
	}
	if got.MaxProcs != orig.MaxProcs {
		t.Errorf("MaxProcs = %d, want %d", got.MaxProcs, orig.MaxProcs)
	}
	if got.Len() != orig.Len() {
		t.Fatalf("jobs = %d, want %d", got.Len(), orig.Len())
	}
	for i := range got.Jobs {
		g, o := got.Jobs[i], orig.Jobs[i]
		if g.ID != o.ID || g.Procs != o.Procs || g.User != o.User || g.Queue != o.Queue {
			t.Fatalf("job %d identity fields differ: got %+v want %+v", i, g, o)
		}
		if math.Abs(g.Run-o.Run) > 0.5 || math.Abs(g.Est-o.Est) > 0.5 || math.Abs(g.Submit-o.Submit) > 0.5 {
			t.Fatalf("job %d times differ beyond rounding: got %+v want %+v", i, g, o)
		}
	}
}

func TestParseSWFHeaderAndSkips(t *testing.T) {
	const swf = `; Comment line
; MaxProcs: 64
1 0 -1 100 4 -1 -1 4 200 -1 1 3 1 -1 2 1 -1 -1
2 10 -1 -1 -1 -1 -1 -1 -1 -1 0 1 1 -1 1 1 -1 -1
3 20 -1 50 2 -1 -1 -1 100 -1 1 5 1 -1 1 1 -1 -1
4 30 -1 80 8 -1 -1 8 -1 -1 1 2 1 -1 3 1 -1 -1
`
	tr, err := ParseSWF(strings.NewReader(swf), "test")
	if err != nil {
		t.Fatalf("ParseSWF: %v", err)
	}
	if tr.MaxProcs != 64 {
		t.Errorf("MaxProcs = %d, want 64 from header", tr.MaxProcs)
	}
	if tr.Len() != 3 {
		t.Fatalf("jobs = %d, want 3 (cancelled job 2 skipped)", tr.Len())
	}
	// job 3: ReqProcs missing, falls back to AllocProcs
	if tr.Jobs[1].Procs != 2 {
		t.Errorf("job 3 procs = %d, want 2 via alloc fallback", tr.Jobs[1].Procs)
	}
	// job 4: ReqTime missing, estimate falls back to runtime
	if tr.Jobs[2].Est != 80 {
		t.Errorf("job 4 est = %v, want 80 via runtime fallback", tr.Jobs[2].Est)
	}
	if tr.Jobs[0].User != 3 || tr.Jobs[0].Queue != 2 {
		t.Errorf("job 1 user/queue = %d/%d, want 3/2", tr.Jobs[0].User, tr.Jobs[0].Queue)
	}
}

func TestParseSWFErrors(t *testing.T) {
	if _, err := ParseSWF(strings.NewReader("1 2 3\n"), "short"); err == nil {
		t.Error("short line accepted")
	}
	if _, err := ParseSWF(strings.NewReader("a b c d e f g h i j k l m n o p q r\n"), "garbage"); err == nil {
		t.Error("non-numeric line accepted")
	}
}

func TestParseSWFInfersMaxProcs(t *testing.T) {
	const swf = "1 0 -1 100 4 -1 -1 16 200 -1 1 1 1 -1 1 1 -1 -1\n"
	tr, err := ParseSWF(strings.NewReader(swf), "noheader")
	if err != nil {
		t.Fatal(err)
	}
	if tr.MaxProcs != 16 {
		t.Errorf("inferred MaxProcs = %d, want 16", tr.MaxProcs)
	}
}

func TestPow2DistCalibration(t *testing.T) {
	for _, target := range []float64{6, 11, 22} {
		d := newPow2Dist(256, target)
		if math.Abs(d.mean-target) > 0.5 {
			t.Errorf("pow2 dist mean %v, want %v", d.mean, target)
		}
		rng := rand.New(rand.NewSource(3))
		var sum float64
		const n = 200000
		for i := 0; i < n; i++ {
			v := d.sample(rng, 256, 0)
			if v < 1 || v > 256 {
				t.Fatalf("sample %d out of range", v)
			}
			sum += float64(v)
		}
		if got := sum / n; math.Abs(got-target)/target > 0.05 {
			t.Errorf("empirical pow2 mean %v, want ~%v", got, target)
		}
	}
}

// TestTable2Calibration checks each generated trace against the statistics
// the paper reports in Table 2 (our substitute for the archive logs).
func TestTable2Calibration(t *testing.T) {
	// load targets come from the paper's Table 5 base-scheduler utilizations
	cases := []struct {
		name                     string
		maxProcs                 int
		interval, est, res, load float64
	}{
		{"SDSC-SP2", 128, 1055, 6687, 11, 0.60},
		{"CTC-SP2", 338, 379, 11277, 11, 0.51},
		{"HPC2N", 240, 538, 17024, 6, 0.24},
		{"Lublin", 256, 771, 4862, 22, 0.59},
	}
	for _, c := range cases {
		tr, err := ByName(c.name, 20000, 42)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s := ComputeStats(tr)
		if s.MaxProcs != c.maxProcs {
			t.Errorf("%s: cluster %d, want %d", c.name, s.MaxProcs, c.maxProcs)
		}
		if rel(s.MeanInterval, c.interval) > 0.02 {
			t.Errorf("%s: mean interval %.0f, want ~%.0f", c.name, s.MeanInterval, c.interval)
		}
		if rel(s.MeanEst, c.est) > 0.05 {
			t.Errorf("%s: mean est %.0f, want ~%.0f", c.name, s.MeanEst, c.est)
		}
		if rel(s.MeanProcs, c.res) > 0.15 {
			t.Errorf("%s: mean procs %.1f, want ~%.1f", c.name, s.MeanProcs, c.res)
		}
		if s.MeanRun > s.MeanEst {
			t.Errorf("%s: mean run %.0f exceeds mean est %.0f", c.name, s.MeanRun, s.MeanEst)
		}
		if got := OfferedLoad(tr); rel(got, c.load) > 0.08 {
			t.Errorf("%s: offered load %.2f, want ~%.2f", c.name, got, c.load)
		}
	}
}

func rel(got, want float64) float64 { return math.Abs(got-want) / want }

func TestGenerateDeterminism(t *testing.T) {
	a := SDSCSP2Like(1000, 11)
	b := SDSCSP2Like(1000, 11)
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs across identical seeds", i)
		}
	}
	c := SDSCSP2Like(1000, 12)
	same := 0
	for i := range a.Jobs {
		if a.Jobs[i].Est == c.Jobs[i].Est {
			same++
		}
	}
	if same == len(a.Jobs) {
		t.Error("different seeds produced identical traces")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope", 10, 1); err == nil {
		t.Error("unknown trace name accepted")
	}
	if _, err := ByName("Lublin", -1, 1); err == nil || !strings.Contains(err.Error(), "jobs") {
		t.Errorf("negative job count: %v", err)
	}
}

func TestOfferedLoad(t *testing.T) {
	tr := &Trace{MaxProcs: 10, Jobs: []Job{
		{ID: 1, Submit: 0, Run: 100, Est: 100, Procs: 5},
		{ID: 2, Submit: 100, Run: 100, Est: 100, Procs: 5},
	}}
	// work = 2*500 = 1000, span = 100, capacity = 10 → load 1.0
	if got := OfferedLoad(tr); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("OfferedLoad = %v, want 1.0", got)
	}
	if got := OfferedLoad(&Trace{MaxProcs: 10}); got != 0 {
		t.Errorf("empty trace load = %v, want 0", got)
	}
}

func TestLublinShape(t *testing.T) {
	tr := LublinTrace(20000, 9)
	// Serial jobs should be a visible fraction (model prob 0.24 plus rounding).
	serial := 0
	for _, j := range tr.Jobs {
		if j.Procs == 1 {
			serial++
		}
	}
	frac := float64(serial) / float64(tr.Len())
	if frac < 0.15 || frac > 0.45 {
		t.Errorf("serial fraction %.2f, want within [0.15, 0.45]", frac)
	}
	// Runtimes must be bimodal-ish: both very short and very long jobs exist.
	short, long := 0, 0
	for _, j := range tr.Jobs {
		if j.Run < 120 {
			short++
		}
		if j.Run > 3600 {
			long++
		}
	}
	if short < tr.Len()/20 || long < tr.Len()/20 {
		t.Errorf("runtime modes thin: %d short, %d long of %d", short, long, tr.Len())
	}
}

func TestGammaSamplerMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct{ shape, scale float64 }{{0.45, 2}, {1, 3}, {4.2, 0.94}, {312, 0.03}} {
		var sum, sumsq float64
		const n = 300000
		for i := 0; i < n; i++ {
			v := sampleGamma(rng, c.shape, c.scale)
			if v < 0 {
				t.Fatalf("negative gamma sample %v", v)
			}
			sum += v
			sumsq += v * v
		}
		mean := sum / n
		wantMean := c.shape * c.scale
		if math.Abs(mean-wantMean)/wantMean > 0.03 {
			t.Errorf("gamma(%v,%v) mean %v, want %v", c.shape, c.scale, mean, wantMean)
		}
		varr := sumsq/n - mean*mean
		wantVar := c.shape * c.scale * c.scale
		if math.Abs(varr-wantVar)/wantVar > 0.1 {
			t.Errorf("gamma(%v,%v) var %v, want %v", c.shape, c.scale, varr, wantVar)
		}
	}
}

func TestZipfIntBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	seen := map[int]int{}
	for i := 0; i < 10000; i++ {
		v := zipfInt(rng, 8)
		if v < 1 || v > 8 {
			t.Fatalf("zipfInt out of range: %d", v)
		}
		seen[v]++
	}
	if seen[1] <= seen[8] {
		t.Errorf("zipf not skewed: rank1=%d rank8=%d", seen[1], seen[8])
	}
	if zipfInt(rng, 1) != 1 || zipfInt(rng, 0) != 1 {
		t.Error("degenerate n should return 1")
	}
}

// Property: any window of any generated trace is itself a valid re-based
// job sequence.
func TestWindowProperty(t *testing.T) {
	tr := HPC2NLike(2000, 3)
	f := func(start, n uint16) bool {
		s := int(start) % (tr.Len() - 1)
		k := 1 + int(n)%256
		if !tr.CanWindow(s, k) {
			return true
		}
		w := tr.Window(s, k)
		if w[0].Submit != 0 {
			return false
		}
		prev := 0.0
		for _, j := range w {
			if j.Submit < prev {
				return false
			}
			prev = j.Submit
			if j.Validate(tr.MaxProcs) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPaperTracesList(t *testing.T) {
	names := PaperTraces()
	if len(names) != 4 || names[0] != "SDSC-SP2" || names[3] != "Lublin" {
		t.Errorf("paper traces = %v", names)
	}
}

func TestSWFFileGzipRoundTrip(t *testing.T) {
	tr := SDSCSP2Like(200, 4)
	dir := t.TempDir()
	for _, name := range []string{"plain.swf", "zipped.swf.gz"} {
		path := dir + "/" + name
		if err := WriteSWFFile(path, tr); err != nil {
			t.Fatal(err)
		}
		got, err := ParseSWFFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != tr.Len() || got.MaxProcs != tr.MaxProcs {
			t.Fatalf("%s: %d jobs procs %d", name, got.Len(), got.MaxProcs)
		}
	}
	if _, err := ParseSWFFile(dir + "/missing.swf"); err == nil {
		t.Error("missing file accepted")
	}
	// corrupt gz
	if err := os.WriteFile(dir+"/bad.gz", []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSWFFile(dir + "/bad.gz"); err == nil {
		t.Error("corrupt gzip accepted")
	}
}
