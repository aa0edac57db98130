package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"schedinspector/internal/core"
	"schedinspector/internal/fleet"
	"schedinspector/internal/nn"
	"schedinspector/internal/obs"
	"schedinspector/internal/serve"
	"schedinspector/internal/sim"
	"schedinspector/internal/stats"
	"schedinspector/internal/workload"
)

// sampleEvery and maxSamples pick the inspect responses whose reject_prob is
// checked against the in-process model: every sampleEvery-th inspect until
// maxSamples are held.
const (
	sampleEvery = 64
	maxSamples  = 256
)

// serveSegment is the stretch of a serve pass between two calibration
// readings: a quarter of a second, or a quarter of a shorter pass.
const serveSegment = 250 * time.Millisecond

// respSample is one inspect response kept for the reject_prob check.
type respSample struct {
	req  int // index into corpus.inspect
	body []byte
}

// segment is one stretch of the measured window between two calibration
// readings.
type segment struct {
	secs                 float64
	done                 []float64 // completion of every successful op, seconds into the segment
	inspectLo, inspectHi int       // its inspects are lat[opInspect][inspectLo:inspectHi]
	calBefore, calAfter  float64
}

// segmentSlices is how many equal slices a segment's completion rate is
// taken over (25 ms each in a quarter-second segment). The rate of a whole
// segment is the reciprocal of its mean latency, and the mean moves with the
// handful of requests the vCPU was descheduled under: over ten runs of
// serve-shallow it spread by 0.14 where the median latency spread by 0.07. A
// stall lands in one slice, and the median slice does not see it.
const segmentSlices = 10

// sliceRates returns the completions per second of each slice.
func (s *segment) sliceRates() []float64 {
	rates := make([]float64, segmentSlices)
	perSecond := segmentSlices / s.secs
	for _, t := range s.done {
		rates[min(int(t*perSecond), segmentSlices-1)] += perSecond
	}
	return rates
}

// phase is what one closed-loop run against the daemon observed during its
// measured window.
type phase struct {
	lat      [numOps][]float64 // latency (ns) per op kind
	segs     []segment         // whole segments only; the window's last, cut short, is left out
	ops      int
	failed   int
	reloads  int // over warm-up and window: the daemon's generation counts both
	inspects int // likewise, for the request-counter check
	samples  []respSample
	spans    *tracer
}

func (p *phase) inspectP50() float64 { return median(p.lat[opInspect]) }

// servePhase drives the daemon with one closed-loop keep-alive connection
// for warm (not recorded) plus dur (recorded). Closed loop because the caller
// is a batch scheduler that blocks on each verdict, and one connection
// because one cluster has one scheduler; client and daemon share the one CPU
// the benchmark runs on (affinity.go). Op kinds and request indexes come from
// a stream seeded from seed, so a run is reproducible. With segLen positive
// the window is cut into segments of that length with a calibration reading
// between them, during which nothing is sent; with traced set, every request
// records a client-side span.
func servePhase(ctx context.Context, addr string, c *corpus, seed int64, warm, dur, segLen time.Duration, traced bool) (*phase, error) {
	conn, err := dialRaw(addr)
	if err != nil {
		return nil, err
	}
	defer conn.close()
	p := &phase{}
	p.lat[opInspect] = make([]float64, 0, 1<<18)
	t0 := time.Now()
	if traced {
		p.spans = newTracer(t0, 1<<18)
	}
	rng := rand.New(rand.NewSource(seed * 1000003))
	winStart, winEnd := t0.Add(warm), t0.Add(warm+dur)
	var seg segment
	var segStart time.Time
	recording := false
	snapshots := 0
	for n := 0; ; n++ {
		start := time.Now()
		if !start.Before(winEnd) || ctx.Err() != nil {
			return p, ctx.Err()
		}
		if !recording && !start.Before(winStart) {
			recording = true
			if segLen > 0 {
				seg.calBefore = calibrate()
			}
			start = time.Now()
			segStart = start
		}
		kind := c.mix.pick(rng.Float64())
		var req request
		idx := 0
		switch kind {
		case opInspect:
			idx = rng.Intn(len(c.inspect))
			req = c.inspect[idx]
			p.inspects++
		case opSnapshot:
			// alternate jsonl / ftrace
			req = c.others[kind][snapshots%len(c.others[kind])]
			snapshots++
		default:
			req = c.others[kind][rng.Intn(len(c.others[kind]))]
		}
		if kind == opReload {
			p.reloads++
		}
		sp := p.spans.begin(opNames[kind], "client", -1, n)
		status, body, err := conn.do(req.wire)
		end := time.Now()
		p.spans.end(sp)
		bad := err != nil || status != 200
		if bad {
			p.failed++
		}
		if err != nil {
			// The connection's framing is lost; a closed loop cannot
			// resynchronise it, so the pass stops and the error fails the run.
			return p, fmt.Errorf("%s: %w", opNames[kind], err)
		}
		if !recording {
			continue
		}
		p.ops++
		if bad {
			continue
		}
		seg.done = append(seg.done, end.Sub(segStart).Seconds())
		p.lat[kind] = append(p.lat[kind], float64(end.Sub(start).Nanoseconds()))
		if kind == opInspect && len(p.lat[kind])%sampleEvery == 0 && len(p.samples) < maxSamples {
			p.samples = append(p.samples, respSample{req: idx, body: append([]byte(nil), body...)})
		}
		if segLen > 0 && end.Sub(segStart) >= segLen {
			seg.secs = end.Sub(segStart).Seconds()
			seg.inspectHi = len(p.lat[opInspect])
			seg.calAfter = calibrate()
			p.segs = append(p.segs, seg)
			seg = segment{inspectLo: seg.inspectHi, calBefore: seg.calAfter, done: make([]float64, 0, len(seg.done)*2)}
			segStart = time.Now()
		}
	}
}

// stateOf rebuilds the sim.State the handler derives from a request body,
// the way serve.Handler.inspect does.
func stateOf(req *serve.InspectRequest) *sim.State {
	queue := make([]sim.QueueItem, 0, len(req.Queue))
	for _, q := range req.Queue {
		queue = append(queue, sim.QueueItem{Wait: q.Wait, Est: q.Est, Procs: q.Procs})
	}
	return sim.NewState(workload.Job{Est: req.Job.Est, Procs: req.Job.Procs},
		req.Job.Wait, req.Rejections, req.FreeProcs, req.TotalProcs,
		req.BackfillEnabled, req.BackfillCount, queue)
}

// checkSamples compares every sampled response's reject_prob with the
// in-process model on the same state and returns the number that differ by
// more than 1e-9.
func checkSamples(ref *core.Inspector, c *corpus, samples []respSample) (bad int, detail string) {
	for _, s := range samples {
		var req serve.InspectRequest
		var resp serve.InspectResponse
		if err := json.Unmarshal(c.inspect[s.req].body, &req); err != nil {
			return len(samples), fmt.Sprintf("corpus request %d does not decode: %v", s.req, err)
		}
		if err := json.Unmarshal(s.body, &resp); err != nil {
			bad++
			detail = fmt.Sprintf("response %q does not decode: %v", s.body, err)
			continue
		}
		want := ref.RejectProb(stateOf(&req))
		if math.Abs(resp.RejectProb-want) > 1e-9 || math.IsNaN(resp.RejectProb) {
			bad++
			detail = fmt.Sprintf("request %d: daemon reject_prob %v, in-process %v", s.req, resp.RejectProb, want)
		}
	}
	return bad, detail
}

// scrapeDaemon fetches and parses the daemon's /metrics page.
func scrapeDaemon(ctx context.Context, addr string) (*fleet.Scrape, error) {
	return (&fleet.Client{}).Scrape(ctx, "http://"+addr+"/metrics")
}

// sampleValue returns the value of the family's first series carrying every
// given label, or NaN.
func sampleValue(s *fleet.Scrape, family string, labels map[string]string) float64 {
	f := s.Family(family)
	if f == nil {
		return math.NaN()
	}
next:
	for _, smp := range f.Samples {
		for k, v := range labels {
			if smp.Labels[k] != v {
				continue next
			}
		}
		return smp.Value
	}
	return math.NaN()
}

// checkDaemon compares the daemon's own counters with what sent, every
// phase it has served since it started, sent it: every inspect answered 200
// exactly once, and generation = 1 + reloads issued. Failures are recorded
// on o; the scrape is nil when it could not be taken.
func checkDaemon(ctx context.Context, addr string, o *outcome, sent ...*phase) *fleet.Scrape {
	sc, err := scrapeDaemon(ctx, addr)
	if err != nil {
		o.fail(1, "scrape after the run: %v", err)
		return nil
	}
	inspects, reloads := 0, 0
	for _, p := range sent {
		inspects += p.inspects
		reloads += p.reloads
	}
	got := sampleValue(sc, "schedinspector_http_requests_total", map[string]string{"route": "/v1/inspect", "code": "200"})
	if got != float64(inspects) {
		o.fail(1, "daemon counted %v inspect 200s, %d were sent", got, inspects)
	}
	if gen := sampleValue(sc, "schedinspector_model_generation", nil); gen != float64(1+reloads) {
		o.fail(1, "daemon generation %v, want 1 + %d reloads", gen, reloads)
	}
	return sc
}

func (b *bench) corpusFor(wl string) *corpus {
	if wl == "serve-mixed" {
		return b.env.mixed
	}
	return b.env.shallow
}

// runServe is the untraced pass of a serve workload: the median over the
// window's segments of the segment's median inspect latency, and the median
// over every segment's slices of the completion rate, each segment scaled to
// the reference speed by the calibration readings on either side of it
// (calib.go).
func runServe(ctx context.Context, b *bench, wl string, seconds time.Duration) (*outcome, error) {
	c := b.corpusFor(wl)
	d := b.env.daemon
	p, err := servePhase(ctx, d.addr, c, b.seed, seconds/10, seconds, min(serveSegment, seconds/4), false)
	if err != nil {
		return nil, err
	}
	o := &outcome{attempted: p.ops, failed: p.failed}
	if bad, detail := checkSamples(b.env.ref, c, p.samples); bad > 0 {
		o.fail(bad, "reject_prob differs from the in-process model on %d of %d sampled responses (%s)", bad, len(p.samples), detail)
	}
	if len(p.samples) == 0 {
		o.fail(1, "no inspect response was sampled for the reject_prob check")
	}
	checkDaemon(ctx, d.addr, o, p)
	rss, err := rssPeakMB(d.pid())
	if err != nil {
		return nil, err
	}
	var rates, meds []float64
	for _, s := range p.segs {
		for _, r := range s.sliceRates() {
			rates = append(rates, r/atRefSpeed(1, s.calBefore, s.calAfter))
		}
		if s.inspectHi > s.inspectLo {
			meds = append(meds, atRefSpeed(median(p.lat[opInspect][s.inspectLo:s.inspectHi])/1e6, s.calBefore, s.calAfter))
		}
	}
	if len(meds) == 0 {
		return nil, fmt.Errorf("%s: no whole segment of inspects in %v", wl, seconds)
	}
	o.samples = len(p.lat[opInspect])
	o.set("ops_per_s", median(rates))
	o.set("op_p50_ms", median(meds))
	o.set("rss_peak_mb", rss)
	return o, nil
}

// pathProbe replays inspect requests through an in-process serve.Handler
// and, for the same request, through each public function the handler
// composes, one span per call. The children are timed in calls of their own
// (the benchmark measures from outside), so the handler's self time is its
// duration minus what the children cost on the same request: queue
// hand-off, the explain and audit recorders, counters and instrumentation.
func pathProbe(b *bench, reqs []request, n int, budget time.Duration, tr *tracer, out values, o *outcome) error {
	insp := b.env.ref.Clone(rand.New(rand.NewSource(daemonRNG)))
	h := serve.NewHandler(b.env.ref.Clone(rand.New(rand.NewSource(daemonRNG))))
	defer h.Close()
	ring := obs.NewTraceRing(0, 0)
	ring.SetMeta(insp.Mode.FeatureNames(), insp.Mode.String(), insp.Norm.MaxRejections)
	var (
		cache nn.Cache
		feat  []float64
		enc   bytes.Buffer
	)
	// The probe records on a tracer of its own, so that span indexes are
	// local for the self-time pass, and merges into the run's at the end.
	run, t0 := tr, time.Now()
	if run != nil {
		t0 = run.t0
	}
	tr = newTracer(t0, 8*n)
	deadline := time.Now().Add(budget)
	done := 0
	for i := 0; i < n && (i < 32 || time.Now().Before(deadline)); i++ {
		body := reqs[i%len(reqs)].body
		hr := httptest.NewRequest("POST", "/v1/inspect", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		hs := tr.begin("serve.handler", "serve", -1, i)
		h.ServeHTTP(rec, hr)
		tr.end(hs)
		if rec.Code != 200 {
			return fmt.Errorf("in-process handler answered %d: %s", rec.Code, rec.Body.String())
		}

		var req serve.InspectRequest
		s := tr.begin("serve.decode", "serve", hs, i)
		err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("sim.newstate", "sim", hs, i)
		st := stateOf(&req)
		tr.end(s)
		es := tr.begin("core.explain", "core", hs, i)
		action, feats, logits, probs := insp.Explain(st, false)
		tr.end(es)
		s = tr.begin("core.features", "core", es, i)
		feat = insp.Norm.Features(feat, insp.Mode, st)
		tr.end(s)
		s = tr.begin("nn.forward", "nn", es, i)
		insp.Agent.Policy.Forward(feat, &cache)
		tr.end(s)
		rec2 := obs.ExplainRecord{Seq: i, Wait: req.Job.Wait, Procs: req.Job.Procs, Est: req.Job.Est,
			MaxRejections: insp.Norm.MaxRejections, QueueLen: len(req.Queue) + 1, FreeProcs: req.FreeProcs,
			TotalProcs: req.TotalProcs, Features: feats, Logits: logits, Probs: probs,
			Action: action, Sampled: true, Rejected: action == core.ActionReject}
		s = tr.begin("obs.emit_decision", "obs", hs, i)
		ring.EmitDecision(&rec2)
		tr.end(s)
		enc.Reset()
		s = tr.begin("serve.encode", "serve", hs, i)
		err = json.NewEncoder(&enc).Encode(serve.InspectResponse{Reject: rec2.Rejected, RejectProb: probs[core.ActionReject]})
		tr.end(s)
		if err != nil {
			return err
		}
		done++
	}
	run.merge(tr)
	local := tr.spans
	self := selfTimes(local)
	var handlerSelf []float64
	for i, s := range local {
		if s.Name == "serve.handler" {
			handlerSelf = append(handlerSelf, float64(self[i]))
		}
	}
	for _, name := range []string{"serve.decode", "sim.newstate", "core.features", "nn.forward", "core.explain", "obs.emit_decision", "serve.encode", "serve.handler"} {
		out[name+"_ns"] = median(durationsOf(local, name))
	}
	out["serve.handler_self_ns"] = median(handlerSelf)
	parts := out["serve.handler_self_ns"]
	for _, child := range []string{"serve.decode", "sim.newstate", "core.explain", "obs.emit_decision", "serve.encode"} {
		parts += out[child+"_ns"]
	}
	o.note("serve path: children + self medians sum to %.0f ns, handler median %.0f ns (ratio %.3f)",
		parts, out["serve.handler_ns"], parts/out["serve.handler_ns"])

	allocs, bytesPer := handlerAllocs(h, reqs, done)
	out["serve.handler_allocs_per_op"] = allocs
	out["serve.handler_bytes_per_op"] = bytesPer
	return nil
}

// handlerAllocs measures heap allocations per in-process handler call, net
// of what the httptest harness itself allocates (measured with an empty
// handler over the same requests).
func handlerAllocs(h http.Handler, reqs []request, n int) (allocs, bytesPer float64) {
	loop := func(h http.Handler) (uint64, uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			hr := httptest.NewRequest("POST", "/v1/inspect", bytes.NewReader(reqs[i%len(reqs)].body))
			h.ServeHTTP(httptest.NewRecorder(), hr)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	empty := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.Copy(io.Discard, r.Body) })
	am, ab := loop(h)
	em, eb := loop(empty)
	return (float64(am) - float64(em)) / float64(n), (float64(ab) - float64(eb)) / float64(n)
}

// queueMonitor scrapes the daemon's queue-depth gauge every 50 ms until
// stopped and reports the largest value seen.
func queueMonitor(ctx context.Context, addr string) (stop func() float64) {
	quit := make(chan struct{})
	res := make(chan float64)
	go func() {
		maxDepth := 0.0
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				res <- maxDepth
				return
			case <-tick.C:
				if sc, err := scrapeDaemon(ctx, addr); err == nil {
					if v := sampleValue(sc, "schedinspector_inspect_queue_depth", nil); v > maxDepth {
						maxDepth = v
					}
				}
			}
		}
	}()
	return func() float64 { close(quit); return <-res }
}

// layersServe is the traced pass of the serve group. It drives a daemon of
// its own over the socket untraced and then traced (the ratio is the
// tracing overhead), reads the daemon from outside, replays the same corpus
// through the in-process path probe, and, when the corpus is the shallow
// one, adds a short mixed slice so the per-op medians of the read, simulate
// and reload ops are measured in every run.
func layersServe(ctx context.Context, b *bench, wl string, sz sizes, budget time.Duration, tr *tracer, out values) (*outcome, error) {
	c := b.corpusFor(wl)
	d, err := startDaemon(ctx, b.env.daemonBin, b.env.modelPath, b.env.runDir)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	o := &outcome{}
	slice := budget / 4

	cpu0, err := procCPUms(d.pid())
	if err != nil {
		return nil, err
	}
	stopMon := queueMonitor(ctx, d.addr)
	plain, err := servePhase(ctx, d.addr, c, b.seed, slice/5, slice, 0, false)
	if err != nil {
		stopMon()
		return nil, err
	}
	traced, err := servePhase(ctx, d.addr, c, b.seed+1, 0, slice, 0, tr != nil)
	out["serve.queue_depth_max"] = stopMon()
	if err != nil {
		return nil, err
	}
	cpu1, err := procCPUms(d.pid())
	if err != nil {
		return nil, err
	}
	o.attempted += plain.ops + traced.ops
	o.failed += plain.failed + traced.failed
	tr.merge(traced.spans)

	sc := checkDaemon(ctx, d.addr, o, plain, traced)
	if sc == nil {
		return o, nil
	}
	// Ops of the warm-up are on the daemon's CPU clock too, so divide by what
	// the daemon counted, not by what the window recorded.
	served := 0.0
	if f := sc.Family("schedinspector_http_requests_total"); f != nil {
		for _, s := range f.Samples {
			served += s.Value
		}
	}
	out["serve.daemon_cpu_ms_per_kop"] = (cpu1 - cpu0) / served * 1000
	out["serve.wave_size_p50"] = sampleValue(sc, "schedinspector_inspect_wave_size_p50", nil)
	out["serve.coalesce_p50_us"] = sampleValue(sc, "schedinspector_inspect_coalesce_seconds_p50", nil) * 1e6

	if err := pathProbe(b, c.inspect, sz.probeReqs, slice, tr, out, o); err != nil {
		return nil, err
	}
	out["serve.http_overhead_us"] = (plain.inspectP50() - out["serve.handler_ns"]) / 1e3
	out["serve.inspect_p99_us"] = stats.Percentile(plain.lat[opInspect], 99) / 1e3
	if tr != nil {
		out["trace_overhead_ratio"] = traced.inspectP50() / plain.inspectP50()
	}

	// The read, simulate and reload ops come from every mixed phase this
	// daemon served: the two slices above on serve-mixed, one short slice of
	// their own otherwise.
	mixed := []*phase{plain, traced}
	if c != b.env.mixed {
		extra, err := servePhase(ctx, d.addr, b.env.mixed, b.seed+2, 0, slice, 0, false)
		if err != nil {
			return nil, err
		}
		o.attempted += extra.ops
		o.failed += extra.failed
		mixed = []*phase{extra}
	}
	for kind, name := range map[opKind]string{opSimulate: "simulate", opExplainLast: "explain_last",
		opSnapshot: "trace_snapshot", opReload: "reload", opMetrics: "metrics_scrape"} {
		var lat []float64
		for _, p := range mixed {
			lat = append(lat, p.lat[kind]...)
		}
		if len(lat) == 0 {
			// The slice was too short for the mix to draw this op; time it
			// directly so the run still reports a measurement.
			if lat, err = timeOps(d.addr, b.env.mixed.others[kind], 3); err != nil {
				return nil, err
			}
			o.attempted += len(lat)
		}
		out["serve."+name+"_p50_us"] = median(lat) / 1e3
	}
	return o, nil
}

// timeOps sends every request n times on one connection and returns the
// latencies (ns).
func timeOps(addr string, reqs []request, n int) ([]float64, error) {
	c, err := dialRaw(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	var lat []float64
	for i := 0; i < n; i++ {
		for _, r := range reqs {
			t0 := time.Now()
			status, _, err := c.do(r.wire)
			if err != nil || status != 200 {
				return nil, fmt.Errorf("direct op: status %d, err %v", status, err)
			}
			lat = append(lat, float64(time.Since(t0).Nanoseconds()))
		}
	}
	return lat, nil
}
