package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"schedinspector/internal/obs"
)

// GET /v1/trace/snapshot: dump the live binary flight-recorder ring. The
// default response is the ring rendered server-side as flight-recorder JSONL
// (the format schedinspect explain reads); ?format=ftrace returns the raw
// binary .ftrace image instead. Neither stalls /v1/inspect: the ring mutex
// is held only to copy records out (AppendSnapshot copies the whole ring,
// AppendJSONL only the records its rendered window has not seen), the
// rendering runs under the JSONL cache's own lock, and the body is written
// with no lock held: the JSONL body straight from the cache's immutable
// views, the .ftrace image from a pooled buffer.

// readBufs holds the response buffers of the read routes (*[]byte): the
// .ftrace snapshot body and the /v1/explain/last body, reused across
// requests.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// jsonlViews holds the view lists of JSONL snapshots (*[][]byte), cleared
// before reuse so a pooled list keeps no dropped block alive.
var jsonlViews = sync.Pool{New: func() any { return new([][]byte) }}

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
	if !jsonl {
		buf := readBufs.Get().(*[]byte)
		defer readBufs.Put(buf)
		*buf = h.ring.AppendSnapshot((*buf)[:0])
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="trace.ftrace"`)
		w.Write(*buf)
		return
	}
	views := jsonlViews.Get().(*[][]byte)
	defer func() {
		clear(*views)
		jsonlViews.Put(views)
	}()
	var n int
	var err error
	if *views, n, err = h.ring.AppendJSONL((*views)[:0]); err != nil {
		// The lines before the record that failed are in the body; the
		// error closes it. A live ring should never fail to render: it
		// would mean an encoder/decoder mismatch or a non-finite value
		// recorded.
		tail := fmt.Appendf(nil, "# snapshot conversion error: %v\n", err)
		*views = append(*views, tail)
		n += len(tail)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	for _, v := range *views {
		if _, err := w.Write(v); err != nil {
			return
		}
	}
}
