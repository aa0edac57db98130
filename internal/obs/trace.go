package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// EventKind classifies one simulator trace event.
type EventKind uint8

// Simulator event kinds, in rough lifecycle order.
const (
	// EventSchedPoint: the base policy picked a top-priority job at a
	// scheduling point (before any inspection).
	EventSchedPoint EventKind = iota
	// EventAccept: the inspector was consulted and let the decision proceed.
	EventAccept
	// EventReject: the inspector was consulted and rejected the decision.
	EventReject
	// EventBackfill: a job is about to start via backfilling.
	EventBackfill
	// EventJobStart: a job started executing.
	EventJobStart
	// EventJobEnd: a job completed and released its processors.
	EventJobEnd
)

var eventKindNames = [...]string{
	EventSchedPoint: "sched_point",
	EventAccept:     "accept",
	EventReject:     "reject",
	EventBackfill:   "backfill",
	EventJobStart:   "job_start",
	EventJobEnd:     "job_end",
}

// String returns the JSONL wire name of the kind.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Event is one structured simulator event. Time is simulation time in
// seconds; FreeProcs and QueueLen are sampled after the event took effect.
type Event struct {
	Kind       EventKind
	Time       float64
	JobID      int
	Procs      int     // processors the job requests
	Wait       float64 // how long the job has waited so far
	FreeProcs  int
	QueueLen   int
	Rejections int // accept/reject: prior rejections of this job
}

// jsonEvent is the JSONL wire form (kind by name, short keys).
type jsonEvent struct {
	Kind       string  `json:"kind"`
	Time       float64 `json:"t"`
	JobID      int     `json:"job"`
	Procs      int     `json:"procs"`
	Wait       float64 `json:"wait"`
	FreeProcs  int     `json:"free"`
	QueueLen   int     `json:"queue"`
	Rejections int     `json:"rejections,omitempty"`
}

// MarshalJSON renders the event with its kind spelled out.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonEvent{
		Kind: e.Kind.String(), Time: e.Time, JobID: e.JobID, Procs: e.Procs,
		Wait: e.Wait, FreeProcs: e.FreeProcs, QueueLen: e.QueueLen, Rejections: e.Rejections,
	})
}

// DefaultTraceCap is the ring capacity NewTracer uses for capacity <= 0.
const DefaultTraceCap = 4096

// Tracer records simulator events into a bounded ring buffer and,
// optionally, streams them to a JSONL sink. A nil *Tracer is valid and
// records nothing: every method is a no-op, and the simulator additionally
// guards each emit site with a nil check so disabled tracing costs one
// branch per event site.
type Tracer struct {
	mu      sync.Mutex
	ring    []Event
	start   int // index of the oldest event
	n       int // events currently held
	total   uint64
	sink    io.Writer
	sinkErr error

	// Reused JSONL encode state: one buffer, encoder and wire wrapper per
	// tracer, so the sink path does not allocate a marshal buffer and an
	// interface box per event. Guarded by mu like the sink itself.
	encBuf   bytes.Buffer
	enc      *json.Encoder
	encEvent jsonEvent
}

// NewTracer returns a tracer holding at most capacity events
// (DefaultTraceCap if capacity <= 0). Older events are overwritten.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{ring: make([]Event, 0, capacity)}
}

// SetSink streams every subsequent event to w as one JSON object per line.
// The first write error sticks (see SinkErr) and disables the sink.
func (t *Tracer) SetSink(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = w
	t.sinkErr = nil
	t.mu.Unlock()
}

// Emit records one event. Safe on a nil tracer.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.total++
	if t.n < cap(t.ring) {
		t.ring = append(t.ring, e)
		t.n++
	} else {
		t.ring[t.start] = e
		t.start++
		if t.start == cap(t.ring) {
			t.start = 0
		}
	}
	if t.sink != nil && t.sinkErr == nil {
		if t.enc == nil {
			t.enc = json.NewEncoder(&t.encBuf)
		}
		t.encBuf.Reset()
		t.encEvent = jsonEvent{
			Kind: e.Kind.String(), Time: e.Time, JobID: e.JobID, Procs: e.Procs,
			Wait: e.Wait, FreeProcs: e.FreeProcs, QueueLen: e.QueueLen, Rejections: e.Rejections,
		}
		err := t.enc.Encode(&t.encEvent)
		if err == nil {
			_, err = t.sink.Write(t.encBuf.Bytes())
		}
		if err != nil {
			t.sinkErr = err
			t.sink = nil
		}
	}
	t.mu.Unlock()
}

// Events returns the buffered events, oldest first. Safe on a nil tracer.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(t.start+i)%cap(t.ring)])
	}
	return out
}

// Total returns how many events were emitted over the tracer's lifetime,
// including those the ring has since overwritten.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many events the ring overwrote.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(t.n)
}

// SinkErr returns the first JSONL sink write error, if any.
func (t *Tracer) SinkErr() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sinkErr
}
