package fleet

import (
	"fmt"
	"strings"
	"testing"
)

func parseExp(t *testing.T, exp string) *Scrape {
	t.Helper()
	s, err := ParseProm([]byte(exp))
	if err != nil {
		t.Fatalf("exposition: %v\n%s", err, exp)
	}
	return s
}

// workerScrape renders a train-worker exposition with the given
// cumulative straggler-wait seconds.
func workerScrape(t *testing.T, epochs uint64, stragglerSum float64) *Scrape {
	return parseExp(t, fmt.Sprintf(
		"# TYPE schedinspector_dist_epochs_total counter\n"+
			"schedinspector_dist_epochs_total %d\n"+
			"# TYPE schedinspector_dist_straggler_seconds histogram\n"+
			"schedinspector_dist_straggler_seconds_bucket{le=\"+Inf\"} %d\n"+
			"schedinspector_dist_straggler_seconds_sum %g\n"+
			"schedinspector_dist_straggler_seconds_count %d\n",
		epochs, epochs, stragglerSum, epochs))
}

func workerView(t *testing.T, name string, sums [2]float64) *TargetView {
	h := NewHistory(8)
	h.Add(100, workerScrape(t, 10, sums[0]))
	h.Add(110, workerScrape(t, 20, sums[1]))
	return &TargetView{
		Target: Target{Name: name, Addr: "x"},
		Kind:   "train-worker",
		Up:     true, LastOKUnix: 110, Hist: h,
	}
}

func TestRuleRankStraggler(t *testing.T) {
	// Three ranks: two accumulate 0.1s of wait over 10s, one accumulates
	// 5s — a 50x skew, well past the 2x factor and the absolute floor.
	ctx := &RuleContext{NowUnix: 110, IntervalSec: 2, WindowSec: 60, Targets: []*TargetView{
		workerView(t, "w0", [2]float64{1, 1.1}),
		workerView(t, "w1", [2]float64{1, 1.1}),
		workerView(t, "w2", [2]float64{1, 6}),
	}}
	fs := ruleRankStraggler(ctx)
	if len(fs) != 1 || fs[0].Target != "w2" {
		t.Fatalf("findings: %+v", fs)
	}
	if fs[0].Value < 10 {
		t.Errorf("skew ratio = %v, want >> 2", fs[0].Value)
	}

	// Balanced waits: no finding even though absolute wait is large.
	ctx.Targets = []*TargetView{
		workerView(t, "w0", [2]float64{1, 6}),
		workerView(t, "w1", [2]float64{1, 6.2}),
	}
	if fs := ruleRankStraggler(ctx); len(fs) != 0 {
		t.Fatalf("balanced fleet fired: %+v", fs)
	}

	// Skewed but tiny absolute wait: under the floor, stays quiet.
	ctx.Targets = []*TargetView{
		workerView(t, "w0", [2]float64{0, 0.001}),
		workerView(t, "w1", [2]float64{0, 0.1}),
	}
	if fs := ruleRankStraggler(ctx); len(fs) != 0 {
		t.Fatalf("sub-floor skew fired: %+v", fs)
	}

	// A single rank has no peers to be skewed against.
	ctx.Targets = ctx.Targets[:1]
	if fs := ruleRankStraggler(ctx); len(fs) != 0 {
		t.Fatalf("single rank fired: %+v", fs)
	}
}

func TestRuleQueueAndErrors(t *testing.T) {
	h := NewHistory(8)
	mk := func(depth float64, sinkErrs uint64) *Scrape {
		return parseExp(t, fmt.Sprintf(
			"schedinspector_inspect_queue_depth %g\n"+
				"schedinspector_inspect_queue_capacity 100\n"+
				"schedinspector_ftrace_sink_errors_total %d\n",
			depth, sinkErrs))
	}
	h.Add(100, mk(10, 0))
	h.Add(110, mk(95, 1))
	ctx := &RuleContext{NowUnix: 110, IntervalSec: 2, WindowSec: 60, Targets: []*TargetView{{
		Target: Target{Name: "d", Addr: "x"}, Kind: "inspectord",
		Up: true, LastOKUnix: 110, Hist: h,
	}}}

	if fs := ruleQueueSaturation(ctx); len(fs) != 1 || fs[0].Value != 0.95 {
		t.Errorf("queue saturation: %+v", fs)
	}
	// The flight sink's first error sticks, so one error is the whole delta.
	alerts, _ := NewEngine(nil).Evaluate(ctx)
	fired := false
	for _, a := range alerts {
		fired = fired || a.Rule == "trace-sink-errors" && a.Target == "d" && a.Value == 1
	}
	if !fired {
		t.Errorf("trace-sink-errors did not fire on a sink-error delta: %+v", alerts)
	}
}

func TestEngineDedupAndResolve(t *testing.T) {
	down := &TargetView{Target: Target{Name: "w0", Addr: "x"}, Up: false, LastErr: "connection refused"}
	up := &TargetView{Target: Target{Name: "w0", Addr: "x"}, Up: true, LastOKUnix: 120, Hist: NewHistory(4)}
	e := NewEngine(nil)

	ctx := &RuleContext{NowUnix: 100, IntervalSec: 2, WindowSec: 60, Targets: []*TargetView{down}}
	alerts, fired := e.Evaluate(ctx)
	if fired != 1 || len(alerts) != 1 || alerts[0].Rule != "target-down" || alerts[0].Count != 1 {
		t.Fatalf("first cycle: fired=%d alerts=%+v", fired, alerts)
	}
	if !strings.Contains(alerts[0].Message, "connection refused") {
		t.Errorf("message lost cause: %q", alerts[0].Message)
	}

	// Same condition next cycle: deduped, count advances, nothing new fires.
	ctx.NowUnix = 102
	alerts, fired = e.Evaluate(ctx)
	if fired != 0 || len(alerts) != 1 || alerts[0].Count != 2 || alerts[0].FiredAtUnix != 100 || alerts[0].LastSeenUnix != 102 {
		t.Fatalf("second cycle: fired=%d alerts=%+v", fired, alerts)
	}

	// Target recovers: alert resolves.
	ctx.NowUnix = 104
	ctx.Targets = []*TargetView{up}
	alerts, fired = e.Evaluate(ctx)
	if fired != 0 || len(alerts) != 0 {
		t.Fatalf("recovery cycle: fired=%d alerts=%+v", fired, alerts)
	}

	// Every default rule was evaluated all three cycles.
	for _, rs := range e.RuleStatuses() {
		if rs.Evaluated != 3 {
			t.Errorf("rule %s evaluated %d times, want 3", rs.Name, rs.Evaluated)
		}
		if rs.Active != 0 {
			t.Errorf("rule %s still active: %d", rs.Name, rs.Active)
		}
	}
}

func TestRuleTargetStale(t *testing.T) {
	ctx := &RuleContext{NowUnix: 200, IntervalSec: 2, WindowSec: 60, Targets: []*TargetView{{
		Target: Target{Name: "w0", Addr: "x"}, Up: true, LastOKUnix: 100, Hist: NewHistory(4),
	}}}
	fs := ruleTargetStale(ctx)
	if len(fs) != 1 || fs[0].Value != 100 {
		t.Fatalf("stale: %+v", fs)
	}
	ctx.Targets[0].LastOKUnix = 198
	if fs := ruleTargetStale(ctx); len(fs) != 0 {
		t.Fatalf("fresh target flagged stale: %+v", fs)
	}
}

func TestParseTargets(t *testing.T) {
	ts, err := ParseTargets("inspectord=127.0.0.1:9090, w0=127.0.0.1:9100 ,bare:9200")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 || ts[0].Name != "inspectord" || ts[2].Name != "bare:9200" {
		t.Fatalf("targets: %+v", ts)
	}
	if got := ts[0].MetricsURL(); got != "http://127.0.0.1:9090/metrics" {
		t.Errorf("MetricsURL: %q", got)
	}
	if got := ts[0].BaseURL(); got != "http://127.0.0.1:9090" {
		t.Errorf("BaseURL: %q", got)
	}
	full := Target{Name: "x", Addr: "http://h:1/custom/metrics"}
	if got := full.MetricsURL(); got != "http://h:1/custom/metrics" {
		t.Errorf("full-URL MetricsURL: %q", got)
	}
	if got := full.BaseURL(); got != "http://h:1/custom" {
		t.Errorf("full-URL BaseURL: %q", got)
	}
	if _, err := ParseTargets("a=1,a=2"); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := ParseTargets(" , "); err == nil {
		t.Error("empty spec accepted")
	}
}
