package expt

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"schedinspector/internal/core"
	"schedinspector/internal/sim"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 19 {
		t.Fatalf("registry has %d experiments, want 19", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.Name == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.Name] {
			t.Errorf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
		got, err := ByName(e.Name)
		if err != nil || got.Name != e.Name {
			t.Errorf("ByName(%q): %v", e.Name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTinyOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Jobs != 20000 || o.Epochs != 25 || o.Batch != 40 {
		t.Errorf("defaults wrong: %+v", o)
	}
	tiny := Tiny(nil).withDefaults()
	if tiny.Jobs != 3000 || tiny.Epochs != 3 {
		t.Errorf("tiny wrong: %+v", tiny)
	}
}

// TestTable1ExactValues checks the motivating example report against the
// values derived in internal/sim's motivating tests (which match Table 1).
func TestTable1ExactValues(t *testing.T) {
	var buf bytes.Buffer
	o := Tiny(&buf)
	if err := Table1(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Case(a)-NoInspect", "3.00", "1.78",
		"Case(a)-Inspected", "1.53",
		"Case(b)-NoInspect", "5.00", "2.47",
		"Case(b)-Inspected", "2.00", "1.40",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2ReportsAllTraces(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(Tiny(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"SDSC-SP2", "CTC-SP2", "HPC2N", "Lublin"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table2 missing %s", name)
		}
	}
}

// TestEveryExperimentRunsTiny smoke-runs the complete registry at tiny
// scale: each experiment must complete without error and produce output.
func TestEveryExperimentRunsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(Tiny(&buf)); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.Name)
			}
		})
	}
}

// TestAblateBackfillShortTrace: a test sequence longer than the trace is
// an error naming both lengths, as it is for core.Evaluate, not a panic
// in the window sampler.
func TestAblateBackfillShortTrace(t *testing.T) {
	o := Tiny(nil)
	o.Epochs, o.EvalSeqLen = 1, 5000
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return AblateBackfillVariant(o)
	}()
	if err == nil || !strings.Contains(err.Error(), "trace has 3000 jobs, need at least SeqLen=5000") {
		t.Errorf("error %v, want one naming 3000 jobs and SeqLen=5000", err)
	}
}

func TestConvergedHelper(t *testing.T) {
	hist := []core.EpochStats{
		{MeanImprovement: 0}, {MeanImprovement: 10}, {MeanImprovement: 20}, {MeanImprovement: 30},
	}
	f := func(h core.EpochStats) float64 { return h.MeanImprovement }
	if got := converged(hist, f, 2); got != 25 {
		t.Errorf("converged(last 2) = %v, want 25", got)
	}
	if got := converged(hist, f, 10); got != 15 {
		t.Errorf("converged(clamped) = %v, want 15", got)
	}
	if got := converged(nil, f, 5); got != 0 {
		t.Errorf("converged(empty) = %v", got)
	}
}

func TestPrintCurveSubsamples(t *testing.T) {
	hist := make([]core.EpochStats, 45)
	for i := range hist {
		hist[i] = core.EpochStats{Epoch: i + 1, MeanImprovement: float64(i)}
	}
	var buf bytes.Buffer
	printCurve(&buf, "label:", hist)
	out := buf.String()
	if !strings.Contains(out, "label:") || !strings.Contains(out, "converged:") {
		t.Fatalf("curve output malformed:\n%s", out)
	}
	// the final epoch must always be printed
	if !strings.Contains(out, "45") {
		t.Errorf("final epoch missing:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines > 16 {
		t.Errorf("curve not subsampled: %d lines", lines)
	}
}

func TestMemoKeyDistinguishesConfigs(t *testing.T) {
	o := Tiny(nil).withDefaults()
	sdsc := trainSpec{traceName: "SDSC-SP2", policy: "SJF"}
	keys := map[trainKey]string{}
	for name, spec := range map[string]trainSpec{
		"default":       sdsc,
		"policy":        {traceName: "SDSC-SP2", policy: "F1"},
		"backfill":      {traceName: "SDSC-SP2", policy: "SJF", backfill: true},
		"maxInterval":   {traceName: "SDSC-SP2", policy: "SJF", maxInterval: 60},
		"maxRejections": {traceName: "SDSC-SP2", policy: "SJF", maxRejections: 16},
		"noCritic":      {traceName: "SDSC-SP2", policy: "SJF", noCritic: true},
	} {
		k := o.memoKey(spec)
		if other, ok := keys[k]; ok {
			t.Errorf("memo keys collide: %s and %s", name, other)
		}
		keys[k] = name
	}
	o2 := o
	o2.Batch++
	if o2.memoKey(sdsc) == o.memoKey(sdsc) {
		t.Error("memo key ignores batch size")
	}
	o2 = o
	o2.Workers = 3
	if o2.memoKey(sdsc) != o.memoKey(sdsc) {
		t.Error("memo key depends on the worker count")
	}
	spelled := sdsc
	spelled.maxInterval, spelled.maxRejections = sim.DefaultMaxInterval, sim.DefaultMaxRejections
	if o.memoKey(spelled) != o.memoKey(sdsc) {
		t.Error("a spec spelling out the simulator defaults gets its own memo entry")
	}
}

// TestAblationsShareDefaultModel: the sweeps train through the memo, so
// their default arms (600 s, cap 72, actor-critic) are ablate-backfill's
// "none" model, trained once, and -v prints an epoch line for every model
// that is trained and for no other.
func TestAblationsShareDefaultModel(t *testing.T) {
	if testing.Short() {
		t.Skip("trains eight tiny models; skipped in -short mode")
	}
	saved := trainMemo
	trainMemo = map[trainKey]cachedTrain{}
	t.Cleanup(func() { trainMemo = saved })

	epochLine := regexp.MustCompile(`(?m)^    \[[^]]+\] epoch +[0-9]+:`)
	// run returns the experiment's verbose output and its epoch-line count.
	run := func(exp func(Options) error) (string, int) {
		t.Helper()
		var buf bytes.Buffer
		o := Tiny(&buf)
		o.Verbose = true
		if err := exp(o); err != nil {
			t.Fatal(err)
		}
		return buf.String(), len(epochLine.FindAllString(buf.String(), -1))
	}
	// cell returns the given column of the table row whose first column is row.
	cell := func(out, row string, col int) string {
		t.Helper()
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > col && f[0] == row {
				return f[col]
			}
		}
		t.Fatalf("no %q row in:\n%s", row, out)
		return ""
	}

	epochs := Tiny(nil).Epochs
	out, lines := run(AblateBackfillVariant)
	if lines != 2*epochs {
		t.Errorf("ablate-backfill trains two models but printed %d epoch lines, want %d:\n%s", lines, 2*epochs, out)
	}
	none := cell(out, "none", 3)
	for _, c := range []struct {
		name   string
		exp    func(Options) error
		models int    // arms other than the default
		row    string // the default arm's row, whose bsld impr. is none's
		tag    string // what every new arm's epoch lines name
	}{
		{"ablate-interval", AblateInterval, 4, "600s", " interval="},
		{"ablate-cap", AblateRejectionCap, 3, "72", " cap="},
		{"ablate-critic", AblateCritic, 1, "", " no-critic]"},
	} {
		out, lines := run(c.exp)
		if lines != c.models*epochs {
			t.Errorf("%s printed %d epoch lines, want %d (%d new models of %d epochs):\n%s",
				c.name, lines, c.models*epochs, c.models, epochs, out)
		}
		for _, line := range epochLine.FindAllString(out, -1) {
			if !strings.Contains(line, "[SDSC-SP2 SJF bsld") || !strings.Contains(line, c.tag) {
				t.Errorf("%s: epoch line %q does not name its spec (SDSC-SP2 SJF bsld and %q)", c.name, line, c.tag)
			}
		}
		if c.row != "" {
			if got := cell(out, c.row, 1); got != none {
				t.Errorf("%s row %s reads bsld impr. %s, want ablate-backfill's none row %s:\n%s",
					c.name, c.row, got, none, out)
			}
		}
	}
}
