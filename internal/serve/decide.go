package serve

import (
	"bytes"
	"context"
	"net/http"
	"time"

	"schedinspector/internal/core"
	"schedinspector/internal/sim"
)

// The model lock. The caller of /v1/inspect is one batch scheduler blocking
// on each verdict, so the route is a straight line: decode into pooled
// scratch, take Handler.mu, decide, release, encode. The lock covers {load
// snapshot → features + forward in the inspector's scratch → one draw from
// its RNG stream → recordDecision}, and Swap and Close take it too. That puts
// decisions and swaps in one total order: every decision is computed,
// recorded and answered against exactly one snapshot, the flight ring's meta
// header never tears against the records around it, and the sampling stream
// is consumed one draw per answered request, in lock order. /v1/info and
// /v1/simulate read the atomic snapshot and never touch the lock.

// maxWaiting bounds the requests parked on the model lock; past it a request
// is answered 429 without waiting. A scheduler sends one request at a time,
// so a pile-up this deep is a stuck lock holder (a slow flight disk) or abuse.
const maxWaiting = 512

// statusClientClosed is nginx's "client closed request": nobody reads the
// response, the request counters do.
const statusClientClosed = 499

// snapshot is the atomically-published serving state. Readers load it once
// and see one consistent model + generation; a swap installs a complete
// replacement, never a field-by-field mutation.
type snapshot struct {
	insp *core.Inspector
	gen  int64 // 1 = boot model, +1 per swap
}

// requestScratch is what one /v1/inspect or /v1/simulate request works in,
// pooled so that a warm request allocates none of it: the body as read, the
// request decoded from it (st.Queue is decoded.Queue), and the response
// bytes. One goroutine owns it from Get to Put.
type requestScratch struct {
	body    bytes.Buffer
	decoded InspectRequest
	queue   []sim.QueueItem // decoded.Queue's backing array, kept when a request has no queue
	st      sim.State
	out     []byte
	sim     SimulateRequest // a /v1/simulate request; sim.Jobs keeps its backing array
}

// A scratch that one outsized request grew is dropped, not pooled, so the
// daemon's resident size follows its usual traffic and not its largest
// request ever. 64 KiB of body is six deep-queue requests' worth; 4096 items
// (96 KiB) is twice what a body of that size holds at ~35 bytes an item, and
// catches the body of bare "{}" items that would hold five times more; it
// bounds simulate jobs (32 bytes each) alike.
const (
	maxPooledBody  = 64 << 10
	maxPooledQueue = 4096
)

func (p *requestScratch) poolable() bool {
	return p.body.Cap() <= maxPooledBody && cap(p.queue) <= maxPooledQueue && cap(p.sim.Jobs) <= maxPooledQueue
}

func (h *Handler) getScratch() *requestScratch { return h.pool.Get().(*requestScratch) }

func (h *Handler) putScratch(p *requestScratch) {
	if p.poolable() {
		h.pool.Put(p)
	}
}

// decide answers one validated request under the model lock and returns the
// verdict with status 200, or the status that says why not. By the time a
// client has its verdict, the metrics and the flight ring both reflect it. A request that is shed (429), arrives after Close (503) or
// whose client has left draws nothing from the RNG stream and writes no
// record.
func (h *Handler) decide(ctx context.Context, req *InspectRequest, st *sim.State) (InspectResponse, int) {
	if h.waiting.Add(1) > maxWaiting {
		h.waiting.Add(-1)
		h.shed.Inc()
		return InspectResponse{}, http.StatusTooManyRequests
	}
	start := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.waiting.Add(-1)
	h.lockWait.Observe(time.Since(start).Seconds())
	if h.closed {
		return InspectResponse{}, http.StatusServiceUnavailable
	}
	if ctx.Err() != nil {
		return InspectResponse{}, statusClientClosed
	}
	snap := h.snap.Load()
	action, feat, logits, probs := snap.insp.ExplainScratch(st)
	reject := action == core.ActionReject
	h.recordDecision(req, feat, logits, probs, action, snap.insp.Norm.MaxRejections, reject)
	return InspectResponse{Reject: reject, RejectProb: probs[core.ActionReject]}, http.StatusOK
}

// Close makes every later /v1/inspect answer 503; a request holding the lock
// finishes first. Call it after the HTTP server has shut down. A Swap after
// Close still applies; closing twice is a no-op.
func (h *Handler) Close() {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
}
