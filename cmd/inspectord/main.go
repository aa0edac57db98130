// Command inspectord serves a trained SchedInspector model over HTTP/JSON,
// the integration surface a production scheduler would call at each
// scheduling point (the paper's §7 Slurm-integration direction).
//
//	inspectord -model model.ckpt -addr :8642
//
// Endpoints:
//
//	POST /v1/inspect      — scheduling context in, {reject, reject_prob} out
//	                        (decided one at a time under the model lock;
//	                        429 past 512 waiting requests)
//	POST /v1/admin/reload — atomically hot-swap the model from disk
//	GET  /v1/info         — served model description
//	GET  /healthz         — alias of /v1/info
//	GET  /metrics         — Prometheus text exposition (requests, latency,
//	                        decision counters, reject ratio, model
//	                        generation and reload counters)
//	GET  /v1/trace/snapshot — dump the in-memory binary flight-recorder
//	                        ring (JSONL by default, ?format=ftrace for the
//	                        raw binary image)
//	GET  /v1/online/status — continual-learning loop state machine (only
//	                        with -online: window fill, retrains, shadow-eval
//	                        scores, promotions/rejections/rollbacks)
//	GET  /v1/online/history — bounded audit ring of candidate verdicts
//	                        (only with -online: both shadow-eval arms,
//	                        margin, promoted/rejected/rolled-back, the
//	                        generation each verdict produced)
//	GET  /debug/pprof     — CPU/heap/goroutine profiling (only with -pprof)
//
// -model accepts a saved model (schedinspect train's model.ckpt), a
// training checkpoint (ckpt-*.ckpt) or an -online-dir promoted generation:
// all are the same file format, loaded and validated by one loader, with no
// export step. SIGHUP re-reads the model path and swaps the
// result in without dropping in-flight requests, same as the admin
// endpoint; a failed load keeps the current model serving.
//
// The process logs its effective sampling seed at startup (decisions are
// sampled from the policy, so the seed makes a served run reproducible),
// and drains in-flight requests on SIGINT/SIGTERM before exiting.
//
// Example request:
//
//	curl -s localhost:8642/v1/inspect -d '{
//	  "job": {"wait": 120, "est": 3600, "procs": 16},
//	  "free_procs": 32, "total_procs": 128,
//	  "queue": [{"wait": 60, "est": 600, "procs": 4}]
//	}'
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"schedinspector/internal/core"
	"schedinspector/internal/obs"
	"schedinspector/internal/online"
	"schedinspector/internal/serve"
	"schedinspector/internal/version"
)

// Connection bounds: a client that trickles bytes, never reads its response
// or goes quiet cannot hold a connection (and its goroutine) forever. A
// scheduler's request arrives in one write; the longest legitimate exchange
// is a /v1/simulate window of a few thousand jobs.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second // headers + body
	writeTimeout      = 60 * time.Second // end of headers to end of response
	idleTimeout       = 2 * time.Minute  // between keep-alive requests
)

func main() {
	var (
		model       = flag.String("model", "model.ckpt", "trained model or checkpoint path (see schedinspect train)")
		addr        = flag.String("addr", ":8642", "listen address")
		seed        = flag.Int64("seed", 0, "decision-sampling seed (0 = time-based)")
		flight      = flag.String("flight", "", "stream the binary flight-recorder ring to this .ftrace file (decisions + proc samples; always queryable live at /v1/trace/snapshot); a file already there moves to FILE.1")
		flightMaxMB = flag.Int("flight-max-mb", 64, "start a new -flight file past this many MiB, keeping one previous generation as FILE.1 (0 = unbounded)")
		procEvery   = flag.Duration("proc-interval", 30*time.Second, "runtime self-profiling snapshot interval (0 disables)")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		drainFor    = flag.Duration("drain", 10*time.Second, "graceful-shutdown timeout for in-flight requests")

		onlineOn        = flag.Bool("online", false, "enable the online continual-learning loop (tail decisions, retrain, shadow-evaluate, promote)")
		onlineInterval  = flag.Duration("online-interval", 30*time.Second, "online loop cycle interval")
		onlineMargin    = flag.Float64("online-margin", 0, "shadow-eval improvement a candidate must clear over the serving model to be promoted")
		onlineMinWindow = flag.Int("online-min-window", 512, "decisions required in the replay window before retraining starts")
		onlineDir       = flag.String("online-dir", "", "persist promoted candidates as checkpoints in this directory (servable via -model on restart)")
	)
	flag.Parse()

	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	// Served decisions are sampled from the policy; logging the effective
	// seed makes a run reproducible even when it was time-derived.
	log.Printf("inspectord: decision-sampling seed %d", *seed)
	// One sampling stream for the process lifetime: reloaded models keep
	// drawing from it (under the handler's model lock), so a hot-swap does
	// not rewind the decision sequence. This is safe only because loading
	// never draws from the stream (LoadServable wires the networks in via
	// rl.AgentFromNets, no fresh initialization) — the reload path runs off
	// the serving path, and every actual draw happens under the lock.
	rng := rand.New(rand.NewSource(*seed))
	load := func() (*core.Inspector, error) { return core.LoadServable(*model, rng) }
	insp, err := load()
	if err != nil {
		log.Fatalf("inspectord: %v", err)
	}
	h := serve.NewHandler(insp)
	h.SetReloader(load)

	// SIGHUP hot-swaps the model from disk, mirroring /v1/admin/reload.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if resp, err := h.Reload(); err != nil {
				log.Printf("inspectord: SIGHUP reload failed, keeping current model: %v", err)
			} else {
				log.Printf("inspectord: SIGHUP reloaded %s (generation %d, %d params)",
					*model, resp.Generation, resp.Params)
			}
		}
	}()

	if *flight != "" {
		w, err := serve.NewRotatingWriter(*flight, int64(*flightMaxMB)<<20)
		if err != nil {
			log.Fatalf("inspectord: flight trace: %v", err)
		}
		defer w.Close()
		h.TraceRing().SetSink(w)
		defer func() {
			if err := h.TraceRing().Flush(); err != nil {
				log.Printf("inspectord: flight trace: %v", err)
			}
		}()
		log.Printf("inspectord: recording binary flight trace to %s (rotating at %d MiB, 0 = never)", *flight, *flightMaxMB)
	}

	version.Register(h.Registry(), insp.Mode.String())
	if *procEvery > 0 {
		// Runtime snapshots ride along in the decision trace, so an offline
		// .ftrace (or a /v1/trace/snapshot dump) correlates scheduling
		// decisions with the process's memory/GC/goroutine state.
		stopProc := obs.NewProcSampler(h.Registry(), h.TraceRing()).Start(*procEvery)
		defer stopProc()
	}

	mux := http.NewServeMux()
	mux.Handle("/", h)

	// The online continual-learning loop: tail the flight ring into replay
	// windows, fine-tune candidates off the serving path, shadow-evaluate
	// against the serving model, and promote through the swap path. Every
	// failure mode keeps the current model serving.
	var stopOnline func()
	if *onlineOn {
		loop, err := online.New(online.Config{
			Source:      h.TraceRing(),
			Serving:     h,
			Registry:    h.Registry(),
			Interval:    *onlineInterval,
			Margin:      *onlineMargin,
			MinWindow:   *onlineMinWindow,
			PromotedDir: *onlineDir,
			Seed:        *seed,
			Logf:        log.Printf,
		})
		if err != nil {
			log.Fatalf("inspectord: %v", err)
		}
		mux.Handle("/v1/online/status", loop.StatusHandler())
		mux.Handle("/v1/online/history", loop.HistoryHandler())
		stopOnline = loop.Start(context.Background())
		log.Printf("inspectord: online continual learning enabled (interval %v, margin %+g, min window %d)",
			*onlineInterval, *onlineMargin, *onlineMinWindow)
	}

	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("inspectord: pprof enabled on /debug/pprof/")
	}

	// Bind before announcing: the logged address is the one bound (so
	// -addr 127.0.0.1:0 reports its port), and a taken port never logs
	// "serving".
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("inspectord: %v", err)
	}
	log.Printf("inspectord: %s serving %s model (%s features, cluster %d) on %s",
		version.String(), insp.Norm.Metric, insp.Mode, insp.Norm.MaxProcs, ln.Addr())

	srv := &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout: readTimeout, WriteTimeout: writeTimeout, IdleTimeout: idleTimeout}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		log.Fatalf("inspectord: %v", err)
	case <-ctx.Done():
		stop()
		log.Printf("inspectord: shutting down (draining up to %v)", *drainFor)
		shutCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Printf("inspectord: shutdown: %v", err)
			srv.Close()
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("inspectord: %v", err)
		}
		// Stop the online loop (cancelling any in-flight retrain), then the
		// handler: the HTTP server has drained.
		if stopOnline != nil {
			stopOnline()
		}
		h.Close()
		log.Printf("inspectord: stopped")
	}
}
