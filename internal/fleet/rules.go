package fleet

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Severity ranks an alert. The fleet plane is advisory — severities feed
// dashboards and exit codes, never automatic remediation.
type Severity string

const (
	SevInfo     Severity = "info"
	SevWarning  Severity = "warning"
	SevCritical Severity = "critical"
)

// Alert is one active, deduplicated finding: the same rule firing on the
// same target across consecutive cycles is a single alert whose Count
// and LastSeenUnix advance.
type Alert struct {
	Rule         string   `json:"rule"`
	Severity     Severity `json:"severity"`
	Target       string   `json:"target"`
	Message      string   `json:"message"`
	Value        float64  `json:"value"`
	FiredAtUnix  float64  `json:"fired_at_unix"`
	LastSeenUnix float64  `json:"last_seen_unix"`
	Count        uint64   `json:"count"`
}

// Finding is what a rule reports for one target in one cycle, before
// dedup.
type Finding struct {
	Target   string
	Severity Severity
	Message  string
	Value    float64
}

// TargetView is the read-only slice of a target's state a rule sees.
type TargetView struct {
	Target     Target
	Kind       string // "inspectord", "train-worker", or "unknown"
	Up         bool
	LastErr    string
	LastOKUnix float64
	Hist       *History
}

// RuleContext is one evaluation cycle's input: every target, the wall
// clock, and the derivation window.
type RuleContext struct {
	NowUnix     float64
	IntervalSec float64
	WindowSec   float64
	Targets     []*TargetView
}

// Rule evaluates one grounded health condition over the whole fleet each
// cycle and reports zero or more findings.
type Rule struct {
	Name string
	Eval func(ctx *RuleContext) []Finding
}

// RuleStatus reports a rule's lifetime evaluation count and how many
// alerts it currently has active — so "the straggler rule ran and found
// nothing" is distinguishable from "the straggler rule never ran".
type RuleStatus struct {
	Name      string `json:"name"`
	Evaluated uint64 `json:"evaluated"`
	Active    int    `json:"active"`
}

// Engine runs rules each cycle and maintains the deduplicated active
// set. Alerts resolve (drop from the active set) the first cycle their
// condition no longer holds.
type Engine struct {
	rules []Rule

	mu        sync.Mutex
	active    map[string]*Alert // keyed rule + "\x00" + target
	evaluated map[string]uint64
}

// NewEngine builds an engine over the given rules (DefaultRules() when
// nil).
func NewEngine(rules []Rule) *Engine {
	if rules == nil {
		rules = DefaultRules()
	}
	return &Engine{
		rules:     rules,
		active:    make(map[string]*Alert),
		evaluated: make(map[string]uint64),
	}
}

// Evaluate runs every rule against the cycle's context, folds findings
// into the active set, resolves cleared alerts, and returns the active
// alerts sorted by severity then rule then target. newlyFired counts
// alerts that did not exist last cycle.
func (e *Engine) Evaluate(ctx *RuleContext) (alerts []Alert, newlyFired int) {
	type keyed struct {
		rule string
		f    Finding
	}
	var found []keyed
	for _, r := range e.rules {
		fs := r.Eval(ctx)
		e.mu.Lock()
		e.evaluated[r.Name]++
		e.mu.Unlock()
		for _, f := range fs {
			found = append(found, keyed{rule: r.Name, f: f})
		}
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	seen := make(map[string]bool, len(found))
	for _, kf := range found {
		key := kf.rule + "\x00" + kf.f.Target
		seen[key] = true
		if a, ok := e.active[key]; ok {
			a.LastSeenUnix = ctx.NowUnix
			a.Count++
			a.Message = kf.f.Message
			a.Value = kf.f.Value
			a.Severity = kf.f.Severity
			continue
		}
		e.active[key] = &Alert{
			Rule:         kf.rule,
			Severity:     kf.f.Severity,
			Target:       kf.f.Target,
			Message:      kf.f.Message,
			Value:        kf.f.Value,
			FiredAtUnix:  ctx.NowUnix,
			LastSeenUnix: ctx.NowUnix,
			Count:        1,
		}
		newlyFired++
	}
	for key := range e.active {
		if !seen[key] {
			delete(e.active, key)
		}
	}
	alerts = make([]Alert, 0, len(e.active))
	for _, a := range e.active {
		alerts = append(alerts, *a)
	}
	sort.Slice(alerts, func(i, j int) bool {
		if alerts[i].Severity != alerts[j].Severity {
			return sevRank(alerts[i].Severity) < sevRank(alerts[j].Severity)
		}
		if alerts[i].Rule != alerts[j].Rule {
			return alerts[i].Rule < alerts[j].Rule
		}
		return alerts[i].Target < alerts[j].Target
	})
	return alerts, newlyFired
}

func sevRank(s Severity) int {
	switch s {
	case SevCritical:
		return 0
	case SevWarning:
		return 1
	default:
		return 2
	}
}

// RuleStatuses reports every rule's evaluation and active-alert counts,
// in rule order.
func (e *Engine) RuleStatuses() []RuleStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	activeByRule := make(map[string]int)
	for _, a := range e.active {
		activeByRule[a.Rule]++
	}
	out := make([]RuleStatus, 0, len(e.rules))
	for _, r := range e.rules {
		out = append(out, RuleStatus{
			Name:      r.Name,
			Evaluated: e.evaluated[r.Name],
			Active:    activeByRule[r.Name],
		})
	}
	return out
}

// Thresholds the default rules fire at. Grounded in the metrics the
// processes actually export; see DESIGN.md for the rationale of each.
const (
	// stragglerSkewFactor: a rank waiting this many times longer than the
	// mean of its peers is the straggler (DD-PPO's ~2x slack intuition).
	stragglerSkewFactor = 2.0
	// stragglerFloorFrac: ignore skew while absolute wait is under this
	// fraction of wall time — 2x of nothing is still nothing.
	stragglerFloorFrac = 0.05
	// queueSaturationFrac: requests waiting for inspectord's model lock
	// over the count past which it sheds them (429).
	queueSaturationFrac = 0.8
	// coalesceP99Burn: windowed p99 of the wait for the model lock
	// (schedinspector_inspect_coalesce_seconds), seconds. A verdict holds
	// the lock for microseconds; a p99 wait of 100 ms means the inspect
	// path is burning its latency budget behind a slow lock holder.
	coalesceP99Burn = 0.1
	// promotionChurnCount: promotions inside one window that suggest the
	// online loop is flapping rather than improving.
	promotionChurnCount = 3
)

// DefaultRules is the grounded rule set the fleet subcommand ships with.
func DefaultRules() []Rule {
	return []Rule{
		{Name: "target-down", Eval: ruleTargetDown},
		{Name: "target-stale", Eval: ruleTargetStale},
		{Name: "rank-straggler", Eval: ruleRankStraggler},
		{Name: "queue-saturation", Eval: ruleQueueSaturation},
		{Name: "wave-latency-burn", Eval: ruleWaveLatencyBurn},
		{Name: "trace-sink-errors", Eval: ruleTraceSinkErrors},
		{Name: "trace-ring-evictions", Eval: ruleTraceRingEvictions},
		{Name: "promotion-churn", Eval: rulePromotionChurn},
	}
}

func ruleTargetDown(ctx *RuleContext) []Finding {
	var out []Finding
	for _, t := range ctx.Targets {
		if t.Up {
			continue
		}
		msg := "scrape failing"
		if t.LastErr != "" {
			msg = "scrape failing: " + t.LastErr
		}
		out = append(out, Finding{Target: t.Target.Name, Severity: SevCritical, Message: msg, Value: 0})
	}
	return out
}

func ruleTargetStale(ctx *RuleContext) []Finding {
	// A target can be nominally up but not scraped recently (backoff,
	// long timeouts): its derived numbers are fossils.
	staleAfter := 3 * ctx.IntervalSec
	if staleAfter < 10 {
		staleAfter = 10
	}
	var out []Finding
	for _, t := range ctx.Targets {
		if !t.Up || t.LastOKUnix == 0 {
			continue // target-down already covers it
		}
		age := ctx.NowUnix - t.LastOKUnix
		if age <= staleAfter {
			continue
		}
		out = append(out, Finding{
			Target:   t.Target.Name,
			Severity: SevWarning,
			Message:  fmt.Sprintf("last successful scrape %.0fs ago", age),
			Value:    age,
		})
	}
	return out
}

// ruleRankStraggler compares straggler-wait rates across the
// train-worker targets. Each worker histograms how long it idled at the
// shard barrier waiting on the slowest peer; a healthy mesh spreads that
// wait evenly, so one rank accumulating wait much faster than the mean
// of the others is being starved by (or is itself mis-sharded against)
// the rest of the fleet.
func ruleRankStraggler(ctx *RuleContext) []Finding {
	type rankRate struct {
		name string
		rate float64
	}
	var ranks []rankRate
	for _, t := range ctx.Targets {
		if t.Kind != "train-worker" || t.Hist == nil {
			continue
		}
		r := t.Hist.HistSumRate("schedinspector_dist_straggler_seconds", ctx.WindowSec)
		if math.IsNaN(r) {
			continue
		}
		ranks = append(ranks, rankRate{name: t.Target.Name, rate: r})
	}
	if len(ranks) < 2 {
		return nil
	}
	var out []Finding
	for i, r := range ranks {
		var others float64
		for j, o := range ranks {
			if j != i {
				others += o.rate
			}
		}
		mean := others / float64(len(ranks)-1)
		if r.rate < stragglerFloorFrac {
			continue
		}
		if r.rate > stragglerSkewFactor*mean {
			out = append(out, Finding{
				Target:   r.name,
				Severity: SevWarning,
				Message: fmt.Sprintf("straggler wait %.3fs/s vs peer mean %.3fs/s (%.1fx)",
					r.rate, mean, safeRatio(r.rate, mean)),
				Value: safeRatio(r.rate, mean),
			})
		}
	}
	return out
}

func safeRatio(a, b float64) float64 {
	if b <= 0 {
		return math.Inf(1)
	}
	return a / b
}

func ruleQueueSaturation(ctx *RuleContext) []Finding {
	var out []Finding
	for _, t := range ctx.Targets {
		if t.Hist == nil {
			continue
		}
		depth, ok1 := t.Hist.GaugeLatest("schedinspector_inspect_queue_depth")
		capacity, ok2 := t.Hist.GaugeLatest("schedinspector_inspect_queue_capacity")
		if !ok1 || !ok2 || capacity <= 0 {
			continue
		}
		frac := depth / capacity
		if frac <= queueSaturationFrac {
			continue
		}
		out = append(out, Finding{
			Target:   t.Target.Name,
			Severity: SevWarning,
			Message:  fmt.Sprintf("inspect requests waiting %.0f/%.0f (%.0f%% of the shed threshold)", depth, capacity, frac*100),
			Value:    frac,
		})
	}
	return out
}

func ruleWaveLatencyBurn(ctx *RuleContext) []Finding {
	var out []Finding
	for _, t := range ctx.Targets {
		if t.Hist == nil {
			continue
		}
		p99 := t.Hist.HistQuantile("schedinspector_inspect_coalesce_seconds", 0.99, ctx.WindowSec)
		if math.IsNaN(p99) || p99 <= coalesceP99Burn {
			continue
		}
		out = append(out, Finding{
			Target:   t.Target.Name,
			Severity: SevWarning,
			Message:  fmt.Sprintf("inspect lock-wait p99 %.3fs over the last %.0fs", p99, ctx.WindowSec),
			Value:    p99,
		})
	}
	return out
}

// counterDeltaRule builds the common "this error counter moved inside
// the window" shape.
func counterDeltaRule(family, what string, sev Severity) func(ctx *RuleContext) []Finding {
	return func(ctx *RuleContext) []Finding {
		var out []Finding
		for _, t := range ctx.Targets {
			if t.Hist == nil {
				continue
			}
			d := t.Hist.CounterDelta(family, ctx.WindowSec)
			if math.IsNaN(d) || d < 0.5 {
				continue
			}
			out = append(out, Finding{
				Target:   t.Target.Name,
				Severity: sev,
				Message:  fmt.Sprintf("%.0f %s in the last %.0fs", d, what, ctx.WindowSec),
				Value:    d,
			})
		}
		return out
	}
}

var (
	ruleTraceSinkErrors = counterDeltaRule(
		"schedinspector_ftrace_sink_errors_total", "trace sink write errors", SevWarning)
	ruleTraceRingEvictions = counterDeltaRule(
		"schedinspector_ftrace_ring_evicted_total", "trace records evicted unflushed", SevInfo)
)

func rulePromotionChurn(ctx *RuleContext) []Finding {
	var out []Finding
	for _, t := range ctx.Targets {
		if t.Hist == nil {
			continue
		}
		if rb := t.Hist.CounterDelta("schedinspector_online_rollbacks_total", ctx.WindowSec); !math.IsNaN(rb) && rb >= 0.5 {
			out = append(out, Finding{
				Target:   t.Target.Name,
				Severity: SevWarning,
				Message:  fmt.Sprintf("%.0f online rollbacks in the last %.0fs", rb, ctx.WindowSec),
				Value:    rb,
			})
			continue
		}
		if pr := t.Hist.CounterDelta("schedinspector_online_promotions_total", ctx.WindowSec); !math.IsNaN(pr) && pr >= promotionChurnCount {
			out = append(out, Finding{
				Target:   t.Target.Name,
				Severity: SevInfo,
				Message:  fmt.Sprintf("%.0f promotions in the last %.0fs — model is flapping", pr, ctx.WindowSec),
				Value:    pr,
			})
		}
	}
	return out
}
