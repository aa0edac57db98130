package expt

import (
	"bytes"
	"strings"
	"testing"

	"schedinspector/internal/core"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 20 {
		t.Fatalf("registry has %d experiments, want 20", len(all))
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
	a := o.memoKey(trainSpec{traceName: "SDSC-SP2", policy: "SJF"})
	b := o.memoKey(trainSpec{traceName: "SDSC-SP2", policy: "F1"})
	c := o.memoKey(trainSpec{traceName: "SDSC-SP2", policy: "SJF", backfill: true})
	if a == b || a == c || b == c {
		t.Error("memo keys collide across configs")
	}
	o2 := o
	o2.Batch++
	if o2.memoKey(trainSpec{traceName: "SDSC-SP2", policy: "SJF"}) == a {
		t.Error("memo key ignores batch size")
	}
}
