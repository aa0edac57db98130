package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"schedinspector/internal/obs"
)

// serveWorkerMetrics exposes a train-worker's registry at
// http://addr/metrics and returns a shutdown function that drains
// in-flight scrapes before the worker exits — a scraper must see a clean
// connection-refused after exit, not a torn exposition. Write failures and
// a fatal Serve error count into schedinspector_metrics_serve_errors_total,
// so a worker whose own telemetry path is broken says so on its next
// scrape.
func serveWorkerMetrics(reg *obs.Registry, addr string, rank int) (shutdown func(), err error) {
	serveErrs := reg.Counter("schedinspector_metrics_serve_errors_total",
		"Failed writes of the /metrics exposition.", nil)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		// WriteProm renders the whole page before its one Write.
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WriteProm(w); err != nil {
			serveErrs.Add(1)
		}
	})
	srv := &http.Server{Handler: mux}
	go func() {
		if serr := srv.Serve(ln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			serveErrs.Add(1)
			fmt.Fprintf(os.Stderr, "metrics-addr: %v\n", serr)
		}
	}()
	fmt.Fprintf(os.Stderr, "rank %d serving /metrics on %s\n", rank, ln.Addr())
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
	}, nil
}
