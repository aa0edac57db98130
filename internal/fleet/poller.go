package fleet

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"schedinspector/internal/obs"
)

// Config wires a Poller.
type Config struct {
	Targets []Target
	// Interval between scrape cycles (default 2s).
	Interval time.Duration
	// Timeout per target scrape (default min(Interval, 5s)).
	Timeout time.Duration
	// Window over which rates and quantiles are derived (default 60s).
	Window time.Duration
	// HistoryCap bounds each target's scrape ring (default
	// DefaultHistoryCap).
	HistoryCap int
	// Rules evaluated each cycle; nil means DefaultRules().
	Rules []Rule
	// Registry receives the fleet plane's self-metrics; nil allocates a
	// private one.
	Registry *obs.Registry
	// Logf, when set, receives one line per target state transition.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
		if c.Timeout > c.Interval {
			c.Timeout = c.Interval
		}
	}
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	if c.HistoryCap <= 0 {
		c.HistoryCap = DefaultHistoryCap
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Poller scrapes every target concurrently each cycle, feeds the rings,
// and runs the rule engine over the result. It is the whole fleet
// plane's write path; the HTTP surface and -once table only read.
type Poller struct {
	cfg    Config
	client Client
	engine *Engine
	states []*targetState

	cycles       *obs.Counter
	alertsFired  *obs.Counter
	alertsActive *obs.Gauge

	mu         sync.Mutex
	lastAlerts []Alert
}

type targetState struct {
	target Target
	hist   *History

	up            *obs.Gauge
	scrapeSeconds *obs.Gauge
	scrapeErrors  *obs.Counter

	mu            sync.Mutex
	isUp          bool
	lastErr       string
	lastOKUnix    float64
	consecFails   int
	backoffUntil  time.Time
	kind          string
	onlineHistory json.RawMessage // raw /v1/online/history body, inspectord only
}

// maxBackoff caps the per-target retry backoff so a rebooted process is
// picked back up within a minute no matter how long it was down.
const maxBackoff = time.Minute

// NewPoller builds the poller and registers its self-metrics.
func NewPoller(cfg Config) *Poller {
	cfg.fill()
	p := &Poller{
		cfg:    cfg,
		engine: NewEngine(cfg.Rules),
		cycles: cfg.Registry.Counter("schedinspector_fleet_cycles_total",
			"Scrape cycles completed by the fleet poller.", nil),
		alertsFired: cfg.Registry.Counter("schedinspector_fleet_alerts_fired_total",
			"Distinct alerts fired since the poller started.", nil),
		alertsActive: cfg.Registry.Gauge("schedinspector_fleet_alerts_active",
			"Alerts currently active.", nil),
	}
	for _, t := range cfg.Targets {
		lbl := obs.Labels{"target": t.Name}
		p.states = append(p.states, &targetState{
			target: t,
			hist:   NewHistory(cfg.HistoryCap),
			up: cfg.Registry.Gauge("schedinspector_fleet_target_up",
				"Whether the last scrape of the target succeeded.", lbl),
			scrapeSeconds: cfg.Registry.Gauge("schedinspector_fleet_scrape_seconds",
				"Duration of the target's last scrape attempt.", lbl),
			scrapeErrors: cfg.Registry.Counter("schedinspector_fleet_scrape_errors_total",
				"Failed scrapes of the target.", lbl),
		})
	}
	return p
}

// Run polls until the context is cancelled. The first cycle starts
// immediately.
func (p *Poller) Run(ctx context.Context) {
	tick := time.NewTicker(p.cfg.Interval)
	defer tick.Stop()
	for {
		p.RunOnce(ctx)
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// RunOnce performs one full cycle: scrape every target concurrently,
// then evaluate the rules over the fresh state.
func (p *Poller) RunOnce(ctx context.Context) {
	now := time.Now()
	var wg sync.WaitGroup
	for _, st := range p.states {
		st.mu.Lock()
		skip := now.Before(st.backoffUntil)
		st.mu.Unlock()
		if skip {
			continue
		}
		wg.Add(1)
		go func(st *targetState) {
			defer wg.Done()
			p.scrapeTarget(ctx, st)
		}(st)
	}
	wg.Wait()
	p.evaluate(time.Now())
	p.cycles.Add(1)
}

func (p *Poller) scrapeTarget(ctx context.Context, st *targetState) {
	sctx, cancel := withTimeout(ctx, p.cfg.Timeout)
	defer cancel()
	t0 := time.Now()
	s, err := p.client.Scrape(sctx, st.target.MetricsURL())
	elapsed := time.Since(t0)
	st.scrapeSeconds.Set(elapsed.Seconds())

	if err != nil {
		st.scrapeErrors.Add(1)
		st.up.Set(0)
		st.mu.Lock()
		wasUp := st.isUp
		st.isUp = false
		st.lastErr = err.Error()
		st.consecFails++
		backoff := p.cfg.Interval << uint(min(st.consecFails-1, 10))
		if backoff > maxBackoff {
			backoff = maxBackoff
		}
		st.backoffUntil = time.Now().Add(backoff)
		st.mu.Unlock()
		if wasUp {
			p.cfg.Logf("fleet: target %s down: %v", st.target.Name, err)
		}
		return
	}

	kind := inferKind(s)
	var online json.RawMessage
	if kind == "inspectord" {
		if base := st.target.BaseURL(); base != "" {
			hctx, hcancel := withTimeout(ctx, p.cfg.Timeout)
			body, herr := p.client.FetchJSON(hctx, base+"/v1/online/history")
			hcancel()
			if herr == nil && len(body) > 0 && json.Valid(body) {
				online = body
			}
		}
	}

	doneUnix := float64(time.Now().UnixNano()) / 1e9
	st.hist.Add(doneUnix, s)
	st.up.Set(1)
	st.mu.Lock()
	wasUp := st.isUp
	st.isUp = true
	st.lastErr = ""
	st.lastOKUnix = doneUnix
	st.consecFails = 0
	st.backoffUntil = time.Time{}
	st.kind = kind
	if online != nil {
		st.onlineHistory = online
	}
	st.mu.Unlock()
	if !wasUp {
		p.cfg.Logf("fleet: target %s up (%s, %s)", st.target.Name, kind, elapsed.Round(time.Millisecond))
	}
}

func (p *Poller) evaluate(now time.Time) {
	ctx := &RuleContext{
		NowUnix:     float64(now.UnixNano()) / 1e9,
		IntervalSec: p.cfg.Interval.Seconds(),
		WindowSec:   p.cfg.Window.Seconds(),
	}
	for _, st := range p.states {
		ctx.Targets = append(ctx.Targets, st.view())
	}
	alerts, fired := p.engine.Evaluate(ctx)
	if fired > 0 {
		p.alertsFired.Add(float64(fired))
		for _, a := range alerts {
			p.cfg.Logf("fleet: alert %s/%s [%s]: %s", a.Rule, a.Target, a.Severity, a.Message)
		}
	}
	p.alertsActive.Set(float64(len(alerts)))
	p.mu.Lock()
	p.lastAlerts = alerts
	p.mu.Unlock()
}

func (st *targetState) view() *TargetView {
	st.mu.Lock()
	defer st.mu.Unlock()
	return &TargetView{
		Target:     st.target,
		Kind:       st.kind,
		Up:         st.isUp,
		LastErr:    st.lastErr,
		LastOKUnix: st.lastOKUnix,
		Hist:       st.hist,
	}
}

// Alerts returns the active set from the most recent cycle.
func (p *Poller) Alerts() []Alert {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Alert(nil), p.lastAlerts...)
}

// inferKind classifies a target from what it exports: the inspect
// decision counter only lives in the serving daemon, the dist epoch
// counter only in train workers.
func inferKind(s *Scrape) string {
	if s == nil {
		return "unknown"
	}
	if s.Family("schedinspector_inspect_decisions_total") != nil {
		return "inspectord"
	}
	if s.Family("schedinspector_dist_epochs_total") != nil {
		return "train-worker"
	}
	return "unknown"
}
