// Package serve exposes a trained SchedInspector model over HTTP/JSON —
// the integration surface a production scheduler (e.g. a Slurm plugin, the
// paper's §7 future-work item) would call at each scheduling point. The
// handler is stateless per request and safe for concurrent use.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"schedinspector/internal/core"
	"schedinspector/internal/obs"
	"schedinspector/internal/sched"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

// InspectRequest is the scheduling context of one decision, mirroring
// sim.State. Times are seconds; processor counts are absolute.
type InspectRequest struct {
	Job struct {
		Wait  float64 `json:"wait"`
		Est   float64 `json:"est"`
		Procs int     `json:"procs"`
	} `json:"job"`
	Rejections      int         `json:"rejections"`
	FreeProcs       int         `json:"free_procs"`
	TotalProcs      int         `json:"total_procs"`
	BackfillEnabled bool        `json:"backfill_enabled"`
	BackfillCount   int         `json:"backfill_count"`
	Queue           []QueueItem `json:"queue"`
}

// QueueItem is one waiting job in the request: the simulator's own queue
// entry (it carries the wire names), so a decoded queue feeds sim.NewState
// without a copy.
type QueueItem = sim.QueueItem

// InspectResponse is the inspector's verdict.
type InspectResponse struct {
	Reject     bool    `json:"reject"`      // sampled decision (deployment mode)
	RejectProb float64 `json:"reject_prob"` // the policy's rejection probability
}

// SimulateRequest describes one what-if simulation: a job sequence to
// schedule on a virtual cluster under a base policy, with the served
// inspector optionally second-guessing every scheduling decision.
type SimulateRequest struct {
	// Policy is the base scheduling policy by its Table 3 abbreviation
	// (FCFS, LCFS, SJF, SQF, SAF, SRF, F1). Default SJF.
	Policy   string `json:"policy"`
	Backfill bool   `json:"backfill"` // EASY backfilling
	MaxProcs int    `json:"max_procs"`

	// Inspector selects how the served model drives the decisions:
	// "stochastic" (default) samples the policy distribution, "greedy"
	// takes the argmax, and "off" runs the base policy alone.
	Inspector string `json:"inspector"`
	Seed      int64  `json:"seed"` // RNG seed for stochastic mode

	Jobs []SimJob `json:"jobs"` // sorted by submit time
}

// SimJob is one job of a simulation request. IDs are assigned by arrival
// order (1-based).
type SimJob struct {
	Submit float64 `json:"submit"`
	Run    float64 `json:"run"`
	Est    float64 `json:"est"`
	Procs  int     `json:"procs"`
}

// SimulateResponse summarizes the simulated schedule.
type SimulateResponse struct {
	Jobs        int     `json:"jobs"`
	Inspections int     `json:"inspections"`
	Rejections  int     `json:"rejections"`
	Backfills   int     `json:"backfills"`
	IdleDelay   float64 `json:"idle_delay"`
	AvgBSLD     float64 `json:"avg_bsld"`
	AvgWait     float64 `json:"avg_wait"`
	MaxBSLD     float64 `json:"max_bsld"`
	Util        float64 `json:"util"`
	Makespan    float64 `json:"makespan"`
}

// InfoResponse describes the served model.
type InfoResponse struct {
	FeatureMode string  `json:"feature_mode"`
	Metric      string  `json:"metric"`
	MaxProcs    int     `json:"max_procs"`
	MaxEst      float64 `json:"max_est"`
	Params      int     `json:"policy_params"`
}

// Handler serves one inspector model.
type Handler struct {
	// The served model, published as one atomic snapshot (model +
	// generation). /v1/info and /v1/simulate load it lock-free; it is stored
	// only under mu.
	snap atomic.Pointer[snapshot]
	mux  *http.ServeMux

	// mu is the model lock (see decide.go): decisions, swaps and Close take
	// it. It guards the served inspector's scratch and RNG, and closed.
	mu      sync.Mutex
	closed  bool
	waiting atomic.Int64 // requests parked on mu
	pool    sync.Pool    // *requestScratch

	// Hot reload (see reload.go). reloader is set once before serving.
	reloadMu sync.Mutex // serializes reloads, NOT held while serving
	reloader func() (*core.Inspector, error)

	// Telemetry.
	reg          *obs.Registry
	reqMu        sync.Mutex
	reqCounts    map[string]*obs.Counter // "route code" -> requests_total series
	fallbacks    *obs.Counter            // /v1/inspect bodies encoding/json decoded
	simFallbacks *obs.Counter            // /v1/simulate bodies encoding/json decoded
	accepts      *obs.Counter
	rejects      *obs.Counter
	probHist     *obs.Histogram
	params       *obs.Gauge
	reloads      *obs.Counter
	loadFailures *obs.Counter
	generation   *obs.Gauge
	shed         *obs.Counter
	lockWait     *obs.Histogram

	// Always-on flight recorder: every served decision is encoded into the
	// arena-backed trace ring, read back over GET /v1/explain/last (see
	// explain.go) and GET /v1/trace/snapshot (see trace.go) and optionally
	// streamed to a .ftrace sink, the daemon's one durable decision record.
	// The ring has its own lock.
	ring   *obs.TraceRing
	decSeq atomic.Int64 // lifetime decision sequence for explain records
}

// NewHandler wraps the inspector in an http.Handler with routes
// POST /v1/inspect, POST /v1/simulate, GET /v1/info (also served at
// /healthz) and GET /metrics (Prometheus text exposition). It starts no
// goroutine; Close makes it answer 503 once the HTTP server has drained.
func NewHandler(insp *core.Inspector) *Handler {
	h := &Handler{
		mux:       http.NewServeMux(),
		reg:       obs.NewRegistry(),
		reqCounts: make(map[string]*obs.Counter),
		ring:      obs.NewTraceRing(0),
	}
	h.snap.Store(&snapshot{insp: insp, gen: 1})
	h.pool.New = func() any { return new(requestScratch) }
	h.ring.Instrument(h.reg)
	h.ring.SetMeta(insp.Mode.FeatureNames(), insp.Mode.String(), insp.Norm.MaxRejections)
	h.accepts = h.reg.Counter("schedinspector_inspect_decisions_total",
		"Inspection verdicts served, by outcome.", obs.Labels{"verdict": "accept"})
	h.rejects = h.reg.Counter("schedinspector_inspect_decisions_total",
		"Inspection verdicts served, by outcome.", obs.Labels{"verdict": "reject"})
	// The reject ratio derives from the two verdict counters at scrape
	// time; a per-decision read-modify-write of a gauge would interleave
	// under concurrency and publish torn ratios.
	h.reg.GaugeFunc("schedinspector_inspect_reject_ratio",
		"Fraction of served decisions that rejected (lifetime).", nil,
		func() float64 {
			total := h.accepts.Value() + h.rejects.Value()
			if total == 0 {
				return 0
			}
			return h.rejects.Value() / total
		})
	h.probHist = h.reg.Histogram("schedinspector_inspect_reject_prob",
		"Distribution of the policy's rejection probability.",
		obs.LinearBuckets(0.1, 0.1, 9), nil)
	h.params = h.reg.Gauge("schedinspector_model_params",
		"Parameters of the served policy network.", nil)
	h.params.Set(float64(insp.Agent.Policy.NumParams()))
	h.reloads = h.reg.Counter("schedinspector_model_reloads_total",
		"Successful model hot-swaps since start.", nil)
	h.loadFailures = h.reg.Counter("schedinspector_model_load_failures_total",
		"Model reload attempts that failed validation or loading.", nil)
	h.generation = h.reg.Gauge("schedinspector_model_generation",
		"Generation of the served model (1 = boot model, +1 per swap).", nil)
	h.generation.Set(1)
	// queue_depth, queue_capacity and coalesce_seconds are named after the
	// queue the model lock replaced; they measure the same waiting.
	h.reg.GaugeFunc("schedinspector_inspect_queue_depth",
		"Requests waiting for the model lock.", nil,
		func() float64 { return float64(h.waiting.Load()) })
	h.reg.Gauge("schedinspector_inspect_queue_capacity",
		"Waiting requests past which /v1/inspect answers 429.", nil).Set(maxWaiting)
	h.shed = h.reg.Counter("schedinspector_inspect_shed_total",
		"Requests answered 429 because queue_capacity requests were already waiting.", nil)
	h.lockWait = h.reg.Histogram("schedinspector_inspect_coalesce_seconds",
		"Time a request waited for the model lock.",
		obs.ExponentialBuckets(1e-6, 4, 10), nil)
	// Scrape-time quantile gauges over the live histogram, through the
	// histogram_quantile() estimator a scraper would apply to the same
	// buckets, so both read the same number.
	// GaugeFunc evaluates at render, so the gauges cost nothing between
	// scrapes; NaN (empty histogram) renders as NaN, which every
	// Prometheus-compatible consumer treats as absent.
	h.reg.GaugeFunc("schedinspector_inspect_coalesce_seconds_p50",
		"Median wait for the model lock (lifetime buckets).", nil,
		func() float64 { return h.lockWait.Quantile(0.5) })
	h.reg.GaugeFunc("schedinspector_inspect_coalesce_seconds_p99",
		"p99 wait for the model lock (lifetime buckets).", nil,
		func() float64 { return h.lockWait.Quantile(0.99) })
	// Constant until ROADMAP bench item 1a drops bench/'s reader of it.
	h.reg.Gauge("schedinspector_inspect_wave_size_p50",
		"Decisions answered per forward: always 1.", nil).Set(1)
	h.fallbacks = h.reg.Counter("schedinspector_inspect_decode_fallback_total",
		"/v1/inspect bodies decoded by encoding/json because they were not in the canonical form the single-pass decoder takes.", nil)
	h.simFallbacks = h.reg.Counter("schedinspector_simulate_decode_fallback_total",
		"/v1/simulate bodies decoded by encoding/json because they were not in the canonical form the single-pass decoder takes.", nil)
	h.mux.HandleFunc("/v1/inspect", h.instrument("/v1/inspect", h.inspect))
	h.mux.HandleFunc("/v1/simulate", h.instrument("/v1/simulate", h.simulate))
	h.mux.HandleFunc("/v1/info", h.instrument("/v1/info", h.info))
	h.mux.HandleFunc("/healthz", h.instrument("/healthz", h.info))
	h.mux.HandleFunc("/v1/admin/reload", h.instrument("/v1/admin/reload", h.reload))
	h.mux.HandleFunc("/v1/explain/last", h.instrument("/v1/explain/last", h.explainLast))
	h.mux.HandleFunc("/v1/trace/snapshot", h.instrument("/v1/trace/snapshot", h.traceSnapshot))
	h.mux.Handle("/metrics", h.reg.Handler())
	return h
}

// Registry exposes the handler's metrics registry so callers (e.g.
// cmd/inspectord) can add process-level series to the same /metrics page.
func (h *Handler) Registry() *obs.Registry { return h.reg }

// statusWriter captures the response code for the request counters.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer when it supports streaming, so
// wrapping a route does not silently strip http.Flusher.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps a route with a request counter (by status code) and a
// latency histogram. The route's 200 series is resolved here, once, so the
// common outcome costs one atomic add; other codes are looked up as they
// occur.
func (h *Handler) instrument(route string, fn http.HandlerFunc) http.HandlerFunc {
	hist := h.reg.Histogram("schedinspector_http_request_duration_seconds",
		"HTTP request latency by route.", nil, obs.Labels{"route": route})
	ok := h.requestCounter(route, http.StatusOK)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		fn(sw, r)
		hist.Observe(time.Since(start).Seconds())
		if sw.code == http.StatusOK {
			ok.Inc()
		} else {
			h.requestCounter(route, sw.code).Inc()
		}
	}
}

// requestCounter lazily creates the requests_total series for route+code
// (codes are not enumerable up front).
func (h *Handler) requestCounter(route string, code int) *obs.Counter {
	key := route + " " + strconv.Itoa(code)
	h.reqMu.Lock()
	defer h.reqMu.Unlock()
	c := h.reqCounts[key]
	if c == nil {
		c = h.reg.Counter("schedinspector_http_requests_total",
			"HTTP requests served, by route and status code.",
			obs.Labels{"route": route, "code": strconv.Itoa(code)})
		h.reqCounts[key] = c
	}
	return c
}

// recordDecision updates the decision metrics and the flight ring. maxRej
// is the served model's rejection cap, read from the same snapshot the
// decision was computed under. The caller holds mu; feat, logits and probs
// may be views of scratch mu guards, so they are encoded here and not
// retained.
func (h *Handler) recordDecision(req *InspectRequest, feat, logits, probs []float64, action, maxRej int, reject bool) {
	if reject {
		h.rejects.Inc()
	} else {
		h.accepts.Inc()
	}
	h.probHist.Observe(probs[core.ActionReject])

	util := 0.0
	if req.TotalProcs > 0 {
		util = 1 - float64(req.FreeProcs)/float64(req.TotalProcs)
	}
	rec := obs.ExplainRecord{
		Seq:  int(h.decSeq.Add(1)) - 1,
		Wait: req.Job.Wait, Procs: req.Job.Procs, Est: req.Job.Est,
		Rejections: req.Rejections, MaxRejections: maxRej,
		QueueLen: len(req.Queue) + 1, FreeProcs: req.FreeProcs,
		TotalProcs: req.TotalProcs, Utilization: util,
		Features: feat, Logits: logits, Probs: probs,
		Action: action, Sampled: true, Rejected: reject,
	}
	h.ring.EmitDecision(&rec)
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// Request body bounds. A deep-queue inspect body is ~10 KB and a simulate
// window of a few thousand jobs a few hundred KB; past these bounds the
// request is not one a scheduler sends, and reading it only holds memory.
const (
	maxInspectBody  = 1 << 20
	maxSimulateBody = 16 << 20
)

// tooLarge reports whether err is a body read that http.MaxBytesReader cut
// off at the route's bound.
func tooLarge(err error) bool {
	var e *http.MaxBytesError
	return errors.As(err, &e)
}

// bodyError answers a request whose body could not be read or decoded: 413
// when it ran past the route's bound, otherwise 400 with the decoder's text.
func bodyError(w http.ResponseWriter, err error) {
	if tooLarge(err) {
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
}

// errReader fails every Read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// decodeStd decodes a request body into v with encoding/json, the decoder
// that defines every route's wire contract. readErr is the error that ended
// the body read, if any: the decoder sees the bytes that arrived followed by
// that error, exactly what it saw when it read the connection itself.
func decodeStd[T any](body []byte, readErr error, v *T) error {
	// A fresh value: encoding/json leaves fields the body does not mention
	// (and stale slice items within capacity) as it found them.
	*v = *new(T)
	var rd io.Reader = bytes.NewReader(body)
	if readErr != nil {
		rd = io.MultiReader(rd, errReader{readErr})
	}
	return json.NewDecoder(rd).Decode(v)
}

// readBody reads the request body, up to limit bytes, into p.body and
// decodes it into v: with fast, the route's single-pass decoder, when the
// body is canonical, and otherwise with encoding/json, counted in fallbacks.
// It answers a body it cannot decode (400, or 413 past limit) itself and
// then returns false.
func readBody[T any](w http.ResponseWriter, r *http.Request, p *requestScratch, limit int64,
	v *T, fast func([]byte, *T) error, fallbacks *obs.Counter) bool {
	p.body.Reset()
	_, readErr := p.body.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	err := readErr
	if err == nil {
		err = fast(p.body.Bytes(), v)
	}
	if err != nil {
		// Not the canonical shape, or a read that ended in an error:
		// encoding/json decides what the body means, as it always has.
		if !tooLarge(readErr) {
			fallbacks.Inc()
			err = decodeStd(p.body.Bytes(), readErr, v)
		}
		if err != nil {
			bodyError(w, err)
			return false
		}
	}
	return true
}

func (h *Handler) inspect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	p := h.getScratch()
	defer h.putScratch(p)

	req := &p.decoded
	req.Queue = p.queue
	if !readBody(w, r, p, maxInspectBody, req, DecodeInspect, h.fallbacks) {
		return
	}
	if req.Queue != nil {
		p.queue = req.Queue[:0]
	}
	if req.Job.Procs <= 0 || req.Job.Est <= 0 || req.TotalProcs <= 0 {
		http.Error(w, "job.procs, job.est and total_procs must be positive", http.StatusBadRequest)
		return
	}
	if req.FreeProcs < 0 || req.FreeProcs > req.TotalProcs {
		http.Error(w, "free_procs out of range", http.StatusBadRequest)
		return
	}
	if msg := contextError(req); msg != "" {
		http.Error(w, msg, http.StatusBadRequest)
		return
	}
	p.st = *sim.NewState(workload.Job{Est: req.Job.Est, Procs: req.Job.Procs},
		req.Job.Wait, req.Rejections, req.FreeProcs, req.TotalProcs,
		req.BackfillEnabled, req.BackfillCount, req.Queue)

	resp, code := h.decide(r.Context(), req, &p.st)
	if code != http.StatusOK {
		http.Error(w, http.StatusText(code), code)
		return
	}
	p.writeResponse(w, resp)
}

// contextError names the first field of the scheduling context outside the
// range the features are normalised over, or returns "" when there is none:
// the counts are non-negative and every queued job, like the job itself, has
// a positive estimate and width. It makes one pass over the queue and
// allocates only to name a queue item.
func contextError(req *InspectRequest) string {
	switch {
	case req.Rejections < 0:
		return "rejections must be non-negative"
	case req.BackfillCount < 0:
		return "backfill_count must be non-negative"
	}
	for i := range req.Queue {
		switch q := &req.Queue[i]; {
		case q.Est <= 0:
			return fmt.Sprintf("queue[%d].est must be positive", i)
		case q.Procs <= 0:
			return fmt.Sprintf("queue[%d].procs must be positive", i)
		}
	}
	return ""
}

// writeResponse writes the verdict as writeJSON would, from p's scratch.
func (p *requestScratch) writeResponse(w http.ResponseWriter, resp InspectResponse) {
	if math.IsNaN(resp.RejectProb) || math.IsInf(resp.RejectProb, 0) {
		writeJSON(w, resp) // no JSON form: encoding/json's refusal is the behaviour
		return
	}
	w.Header().Set("Content-Type", "application/json")
	p.out = appendInspectResponse(p.out[:0], resp)
	w.Write(p.out)
}

// simulate runs a full what-if schedule over the submitted job sequence by
// driving a live sim.Env: the environment yields at every scheduling
// decision and the served model answers it, exactly as a production
// deployment would. The request's inspector mode picks the decision rule;
// "off" runs the base policy straight through.
func (h *Handler) simulate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	p := h.getScratch()
	defer h.putScratch(p)
	if readBody(w, r, p, maxSimulateBody, &p.sim, DecodeSimulate, h.simFallbacks) {
		h.runSimulate(w, &p.sim)
	}
}

// runSimulate answers a decoded simulate request.
func (h *Handler) runSimulate(w http.ResponseWriter, req *SimulateRequest) {
	if req.MaxProcs <= 0 {
		http.Error(w, "max_procs must be positive", http.StatusBadRequest)
		return
	}
	if len(req.Jobs) == 0 {
		http.Error(w, "jobs must be non-empty", http.StatusBadRequest)
		return
	}
	if req.Policy == "" {
		req.Policy = "SJF"
	}
	pol, err := sched.ByName(req.Policy)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	mode := req.Inspector
	if mode == "" {
		mode = "stochastic"
	}
	switch mode {
	case "stochastic", "greedy", "off":
	default:
		http.Error(w, fmt.Sprintf("unknown inspector mode %q (want stochastic, greedy or off)", mode),
			http.StatusBadRequest)
		return
	}

	jobs := make([]workload.Job, len(req.Jobs))
	for i, j := range req.Jobs {
		jobs[i] = workload.Job{ID: i + 1, Submit: j.Submit, Run: j.Run, Est: j.Est, Procs: j.Procs}
	}
	cfg := sim.Config{MaxProcs: req.MaxProcs, Policy: pol, Backfill: req.Backfill}
	if err := sim.ValidateJobs(jobs, req.MaxProcs); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cfg.NoValidate = true

	var res sim.Result
	if mode == "off" {
		// No decisions to answer: the straight-through run never yields.
		if res, err = sim.Run(jobs, cfg); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	} else {
		// Clone from the current snapshot so a long simulation shares no
		// buffers with the live serving path; stochastic mode draws from a
		// request-seeded stream so responses are reproducible.
		clone := h.snap.Load().insp.Clone(rand.New(rand.NewSource(req.Seed)))
		decide := clone.Stochastic()
		if mode == "greedy" {
			decide = clone.Greedy()
		}
		env := sim.NewEnv()
		st, done, err := env.Reset(jobs, cfg)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for !done {
			st, done = env.Step(decide(st))
		}
		res = env.Result()
	}

	sum := res.Summary(req.MaxProcs)
	resp := SimulateResponse{
		Jobs:        sum.Jobs,
		Inspections: res.Inspections,
		Rejections:  res.Rejections,
		Backfills:   res.Backfills,
		IdleDelay:   res.IdleDelay,
		AvgBSLD:     sum.AvgBSLD,
		AvgWait:     sum.AvgWait,
		MaxBSLD:     sum.MaxBSLD,
		Util:        sum.Util,
		Makespan:    sum.Makespan,
	}
	if msg := resp.overflow(); msg != "" {
		http.Error(w, msg, http.StatusBadRequest)
		return
	}
	writeJSON(w, resp)
}

// overflow names the first field of resp that has no JSON form, NaN or ±Inf:
// the schedule's times overflowed float64. It is "" for a response that
// encodes.
func (resp *SimulateResponse) overflow() string {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"idle_delay", resp.IdleDelay}, {"avg_bsld", resp.AvgBSLD}, {"avg_wait", resp.AvgWait},
		{"max_bsld", resp.MaxBSLD}, {"util", resp.Util}, {"makespan", resp.Makespan},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Sprintf("simulated schedule overflows float64: %s is %v", f.name, f.v)
		}
	}
	return ""
}

func (h *Handler) info(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	insp := h.snap.Load().insp
	writeJSON(w, InfoResponse{
		FeatureMode: insp.Mode.String(),
		Metric:      insp.Norm.Metric.String(),
		MaxProcs:    insp.Norm.MaxProcs,
		MaxEst:      insp.Norm.MaxEst,
		Params:      insp.Agent.Policy.NumParams(),
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
