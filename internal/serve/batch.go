package serve

import (
	"bytes"
	"time"

	"schedinspector/internal/core"
	"schedinspector/internal/sim"
)

// The batched serving hot path. Concurrent /v1/inspect requests do their
// own parsing and validation, then enqueue one pending decision onto a
// bounded queue and wait. A single collector goroutine drains up to
// MaxWave pending decisions into a decision wave and answers the whole
// wave with one core.BatchExplainer call (one nn.ForwardBatch) — the same
// wave machinery the rollout driver uses, pointed at live traffic.
//
// The collector is the only goroutine that touches the served model, so
// the request path holds no lock at all: under load, waves form naturally
// (requests pile up while the previous wave forwards) and the per-decision
// cost amortizes; at concurrency 1 every wave has size 1 and the path
// degenerates to the scalar forward plus one channel handoff.
//
// Model swaps travel through the same collector (see reload.go), which
// gives decisions and swaps one total order: every decision is computed,
// recorded and answered against exactly one snapshot, and the explain/trace
// meta headers can never tear against the records around them.

// DefaultMaxWave bounds how many pending decisions one wave may coalesce.
const DefaultMaxWave = 64

// Options tunes the batched serving path.
type Options struct {
	// MaxWave bounds the decisions answered by one batched forward
	// (default DefaultMaxWave).
	MaxWave int
	// WaveTimeout is how long the collector waits for stragglers to fill a
	// wave once at least one decision is pending. The default 0 never
	// waits: the collector drains whatever is queued and forwards
	// immediately, which batches under load without adding latency at low
	// concurrency.
	WaveTimeout time.Duration
	// QueueDepth bounds the pending-decision queue (default 4*MaxWave).
	// A full queue applies backpressure: requests block in submit order.
	QueueDepth int
}

// withDefaults normalizes unset options.
func (o Options) withDefaults() Options {
	if o.MaxWave <= 0 {
		o.MaxWave = DefaultMaxWave
	}
	if o.WaveTimeout < 0 {
		o.WaveTimeout = 0
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.MaxWave
	}
	return o
}

// snapshot is the atomically-published serving state: the model plus every
// per-decision constant derived from it. Readers load it once and see one
// consistent model+meta; a swap installs a complete replacement, never a
// field-by-field mutation.
type snapshot struct {
	insp   *core.Inspector
	maxRej int
	gen    int64 // 1 = boot model, +1 per swap
}

// inspectOutcome is the collector's answer to one pending decision.
type inspectOutcome struct {
	reject     bool
	rejectProb float64
}

// pendingDecision is one enqueued /v1/inspect request. done is buffered
// (capacity 1) so the collector never blocks answering; the pool reuses
// the channel after the waiter has consumed the outcome.
//
// It doubles as the request's scratch, so that a warm request allocates none
// of it: the body as read, the request decoded from it (req points at
// decoded, state at st, and st.Queue is decoded.Queue), and the response
// bytes. The collector reads req and state until it sends on done — the
// decision record and the audit line are encoded from them — so the rule is:
// release only after receiving from done, or when p was never submitted.
type pendingDecision struct {
	req      *InspectRequest
	state    *sim.State
	enqueued time.Time
	done     chan inspectOutcome

	body    bytes.Buffer
	decoded InspectRequest
	queue   []sim.QueueItem // decoded.Queue's backing array, kept when a request has no queue
	st      sim.State
	out     []byte
}

// A scratch that one outsized request grew is dropped, not pooled, so the
// daemon's resident size follows its usual traffic and not its largest
// request ever. 64 KiB of body is six deep-queue requests' worth; 4096 items
// (96 KiB) is twice what a body of that size holds at ~35 bytes an item, and
// catches the body of bare "{}" items that would hold five times more.
const (
	maxPooledBody  = 64 << 10
	maxPooledQueue = 4096
)

func (p *pendingDecision) poolable() bool {
	return p.body.Cap() <= maxPooledBody && cap(p.queue) <= maxPooledQueue
}

// release returns p to the pool. See pendingDecision for when that is safe.
func (h *Handler) release(p *pendingDecision) {
	if p.poolable() {
		h.pendPool.Put(p)
	}
}

// swapRequest asks the collector to install a new model snapshot. done
// closes after the swap (and its meta update) is visible.
type swapRequest struct {
	insp *core.Inspector
	done chan struct{}
}

// submit enqueues a pending decision, returning false when the handler is
// closed. The read lock is held across the (possibly blocking) send so
// Close cannot tear the queue down while a sender is parked on it.
func (h *Handler) submit(p *pendingDecision) bool {
	h.stopMu.RLock()
	defer h.stopMu.RUnlock()
	if h.stopped {
		return false
	}
	h.queue <- p
	return true
}

// Close stops the collector after draining every enqueued decision. Call
// it after the HTTP server has shut down; requests arriving later are
// answered 503. Closing twice is a no-op.
func (h *Handler) Close() {
	h.stopMu.Lock()
	if h.stopped {
		h.stopMu.Unlock()
		return
	}
	h.stopped = true
	h.stopMu.Unlock()
	// No submit/Swap can be in flight past this point: both hold the read
	// lock across their send, so the write lock above waited them out.
	close(h.queue)
	<-h.collectorDone
}

// collect is the collector goroutine: the single owner of the served
// model's forward pass, the decision records, and the swap application.
func (h *Handler) collect() {
	defer close(h.collectorDone)
	wave := make([]*pendingDecision, 0, h.opts.MaxWave)
	states := make([]*sim.State, h.opts.MaxWave)
	outs := make([]core.ExplainOut, h.opts.MaxWave)
	for {
		select {
		case s := <-h.swapCh:
			h.applySwap(s.insp)
			close(s.done)
		case p, ok := <-h.queue:
			if !ok {
				return
			}
			wave = h.gather(p, wave[:0])
			h.processWave(wave, states, outs)
		}
	}
}

// gather drains the queue into a wave, starting from first: everything
// already pending joins immediately (up to MaxWave), and with a positive
// WaveTimeout the collector waits that long for stragglers before
// forwarding a partial wave.
func (h *Handler) gather(first *pendingDecision, wave []*pendingDecision) []*pendingDecision {
	wave = append(wave, first)
	var timeout <-chan time.Time
	for len(wave) < h.opts.MaxWave {
		select {
		case p, ok := <-h.queue:
			if !ok {
				return wave // closing; the main loop exits after this wave
			}
			wave = append(wave, p)
			continue
		default:
		}
		if h.opts.WaveTimeout <= 0 {
			return wave
		}
		if timeout == nil {
			timeout = time.After(h.opts.WaveTimeout)
		}
		select {
		case p, ok := <-h.queue:
			if !ok {
				return wave
			}
			wave = append(wave, p)
		case <-timeout:
			return wave
		}
	}
	return wave
}

// processWave answers one wave: a single batched forward under the current
// snapshot, then per row — in wave order — one decision record and one
// response. Recording before responding keeps the synchronous contract the
// HTTP tests rely on: by the time a client has its verdict, the metrics,
// flight ring and audit log all reflect it.
func (h *Handler) processWave(wave []*pendingDecision, states []*sim.State, outs []core.ExplainOut) {
	snap := h.snap.Load()
	for i, p := range wave {
		states[i] = p.state
	}
	start := time.Now()
	for _, p := range wave {
		h.coalesce.Observe(start.Sub(p.enqueued).Seconds())
	}
	h.batcher.Explain(snap.insp, states[:len(wave)], false, outs[:len(wave)])
	h.waveSize.Observe(float64(len(wave)))
	for i, p := range wave {
		o := &outs[i]
		reject := o.Action == core.ActionReject
		h.recordDecision(p.req, o.Features, o.Logits, o.Probs, o.Action, snap.maxRej, reject)
		p.done <- inspectOutcome{reject: reject, rejectProb: o.Probs[core.ActionReject]}
		states[i] = nil
	}
}

// applySwap installs a new model snapshot and brings the flight ring's
// meta and the model metrics in step. It runs on the collector goroutine
// (between waves) or, after Close, inline on the swapper — either way it
// is serialized against every decision, so no record can be emitted under
// a header that does not describe it.
func (h *Handler) applySwap(insp *core.Inspector) {
	old := h.snap.Load()
	h.snap.Store(&snapshot{insp: insp, maxRej: insp.Norm.MaxRejections, gen: old.gen + 1})
	h.ring.SetMeta(insp.Mode.FeatureNames(), insp.Mode.String(), insp.Norm.MaxRejections)
	h.params.Set(float64(insp.Agent.Policy.NumParams()))
	h.reloads.Inc()
	h.generation.Add(1)
}
