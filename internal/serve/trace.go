package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"

	"schedinspector/internal/explain"
	"schedinspector/internal/obs"
)

// GET /v1/trace/snapshot: dump the live binary flight-recorder ring. The
// default response converts the ring server-side to the flight-recorder
// JSONL (the format schedinspect explain reads); ?format=ftrace returns the
// raw binary .ftrace image instead. Snapshot and conversion run off the
// serving lock — the ring has its own mutex and the copy is taken in one
// short hold — so a dump never stalls /v1/inspect.

// readBufs holds the response buffers of the read routes (*[]byte): the
// snapshot image and the /v1/explain/last body, reused across requests.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// TraceRing exposes the handler's binary flight-recorder ring so callers
// (e.g. cmd/inspectord) can attach a .ftrace sink or thread ProcSampler
// samples into the same trace stream.
func (h *Handler) TraceRing() *obs.TraceRing { return h.ring }

func (h *Handler) traceSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	format := r.URL.Query().Get("format")
	jsonl := format == "" || format == "jsonl"
	if !jsonl && format != "ftrace" && format != "binary" {
		http.Error(w, fmt.Sprintf("unknown format %q (want jsonl or ftrace)", format), http.StatusBadRequest)
		return
	}
	buf := readBufs.Get().(*[]byte)
	defer readBufs.Put(buf)
	*buf = h.ring.AppendSnapshot((*buf)[:0])
	if !jsonl {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="trace.ftrace"`)
		w.Write(*buf)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := explain.ConvertFTrace(bytes.NewReader(*buf), w); err != nil {
		// Headers are out; all we can do is log the conversion failure
		// into the response trailer position. A snapshot of a live ring
		// should never fail to convert — it would indicate an encoder /
		// decoder mismatch.
		fmt.Fprintf(w, "# snapshot conversion error: %v\n", err)
	}
}
