package obs

import "time"

// Span-based structured tracing: the decision flight recorder's skeleton.
// Where sim.Config.OnEvent reports flat simulator events, spans carry
// identity (an ID and a parent ID), duration in both wall-clock and
// simulation time, and free-form key/value attributes — enough to
// reconstruct "why did the model reject job X at 03:12" after the fact by
// walking run → epoch → episode → decision.
//
// Span IDs are caller-supplied and expected to come from DeriveSpanID, a
// SplitMix64 hash chain over stable tags (seed, epoch, episode slot,
// decision sequence). Identity therefore never depends on execution order:
// a workers=1 and a workers=8 rollout over the same seed emit the same
// span IDs, and only the (explicitly non-deterministic) wall timestamps
// and ring insertion order differ.

// SpanID identifies one span. Zero means "no span" (the root has parent 0).
type SpanID uint64

// DeriveSpanID hashes a chain of stable tags into a span ID using the
// SplitMix64 finalizer — the same derivation discipline as the rollout
// engine's RNG streams, so IDs are reproducible for any worker count.
func DeriveSpanID(tags ...uint64) SpanID {
	x := uint64(0x5370616e) // "Span"
	for _, t := range tags {
		x = mix64(x ^ t)
	}
	if x == 0 {
		x = 1 // 0 is reserved for "no span"
	}
	return SpanID(x)
}

// mix64 is the SplitMix64 finalizer (Steele, Lea, Flood 2014).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Attr is one key/value span attribute. Num carries numeric values, Str
// string ones; exactly one is meaningful per attribute.
type Attr struct {
	Key string  `json:"k"`
	Num float64 `json:"v,omitempty"`
	Str string  `json:"s,omitempty"`
}

// Span is one completed trace span. Wall times are Unix nanoseconds; sim
// times are simulation seconds (zero for spans outside a simulation, e.g.
// a training epoch).
type Span struct {
	ID        SpanID  `json:"id"`
	Parent    SpanID  `json:"parent,omitempty"`
	Name      string  `json:"name"`
	WallStart int64   `json:"wall0"`
	WallEnd   int64   `json:"wall1"`
	SimStart  float64 `json:"t0"`
	SimEnd    float64 `json:"t1"`
	Attrs     []Attr  `json:"attrs,omitempty"`
}

// wallNow is the wall clock, a package variable so tests can pin it.
var wallNow = func() int64 { return time.Now().UnixNano() }

// StartSpan opens a span: it stamps the wall-clock start and returns the
// value for the caller to finish with End and hand to TraceRing.EmitSpan.
// Spans are plain values — the ring only sees completed ones — so tracing
// that is disabled costs nothing (callers gate on the ring being non-nil
// before building one).
func StartSpan(name string, id, parent SpanID, simStart float64) Span {
	return Span{ID: id, Parent: parent, Name: name, WallStart: wallNow(), SimStart: simStart}
}

// End stamps the wall-clock end and the simulation end time.
func (s *Span) End(simEnd float64) {
	s.WallEnd = wallNow()
	s.SimEnd = simEnd
}
