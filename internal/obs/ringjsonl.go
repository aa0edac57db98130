package obs

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"
)

// jsonlCache is the rendered flight-trace JSONL of a ring's live window,
// kept so each record is rendered at most once while it stays in the ring.
// Records are appended and evicted in order, so the window's JSONL is one
// contiguous run of lines: the lines of absolute records [lo, hi) — record
// i is the i-th record the ring ever accepted — with one end offset per
// line. Its own mutex serializes AppendJSONL callers; it is never held by
// an emit, and it is taken before r.mu, never after.
type jsonlCache struct {
	mu     sync.Mutex
	lo, hi uint64 // absolute records whose lines text holds
	text   []byte
	ends   []int // ends[i] is where record lo+i's line ends in text

	framed   []byte // records >= hi, copied out of the arena under r.mu
	leadSrc  []byte // framed evicted header the window opens with, if any
	leadLine []byte // its rendering
	dec      ExplainRecord

	renders uint64       // records rendered over the cache's life
	bytes   atomic.Int64 // capacity of the buffers above, for the gauge
}

// maxKeptFramed is the largest framed-record scratch a call keeps for the
// next one: room for ~1 000 manual-mode decisions.
const maxKeptFramed = 256 << 10

// AppendJSONL appends the live ring as flight-trace JSONL to dst: exactly
// the bytes explain.ConvertFTrace writes for Snapshot(), and on failure the
// same prefix and the same error. The ring mutex is held only to copy the
// records that arrived since the previous call (and the evicted-header lead
// line's record); rendering runs under the cache's own mutex, and a record
// is rendered once while it stays live. A record that fails to render (a
// non-finite float) is never cached: every call re-renders it and stops
// there until wraparound evicts it. Safe on a nil ring.
func (r *TraceRing) AppendJSONL(dst []byte) ([]byte, error) {
	if r == nil {
		return dst, nil
	}
	c := &r.jsonl
	c.mu.Lock()
	defer c.mu.Unlock()

	r.mu.Lock()
	first := r.total - uint64(r.n)
	from := int(max(c.hi, first) - first)
	size := 0
	for i := from; i < r.n; i++ {
		size += len(r.slotAt(i))
	}
	c.framed = slices.Grow(c.framed[:0], size)
	for i := from; i < r.n; i++ {
		c.framed = append(c.framed, r.slotAt(i)...)
	}
	lead := r.lostHeader
	if r.n == 0 || r.slotAt(0)[0] == FTraceKindHeader {
		lead = nil
	}
	leadChanged := !bytes.Equal(lead, c.leadSrc)
	if leadChanged {
		c.leadSrc = append(c.leadSrc[:0], lead...)
	}
	r.mu.Unlock()

	if c.hi < first { // more than a window arrived: nothing cached is live
		c.lo, c.hi = first, first
		c.text, c.ends = c.text[:0], c.ends[:0]
	} else if k := int(first - c.lo); k > 0 {
		cut := c.ends[k-1]
		c.text = c.text[:copy(c.text, c.text[cut:])]
		c.ends = c.ends[:copy(c.ends, c.ends[k:])]
		for i := range c.ends {
			c.ends[i] -= cut
		}
		c.lo = first
	}
	if leadChanged {
		c.leadLine = c.leadLine[:0]
		if len(c.leadSrc) > 0 {
			// A header's line has no float in it; it cannot fail.
			c.leadLine, _ = AppendFTraceRecordJSONL(c.leadLine, c.leadSrc[0], c.leadSrc[ftraceRecHdrLen:], &c.dec)
		}
	}

	var err error
	for o := 0; o < len(c.framed); {
		kind := c.framed[o]
		end := o + ftraceRecHdrLen + int(binary.LittleEndian.Uint32(c.framed[o+1:]))
		body := c.framed[o+ftraceRecHdrLen : end]
		o = end
		c.renders++
		if c.text, err = AppendFTraceRecordJSONL(c.text, kind, body, &c.dec); err != nil {
			break
		}
		c.ends = append(c.ends, len(c.text))
		c.hi++
	}
	if cap(c.framed) > maxKeptFramed {
		c.framed = nil // a cold call's copy of the whole ring; calls between snapshots copy far less
	}
	c.bytes.Store(int64(cap(c.text) + 8*cap(c.ends) + cap(c.framed) + cap(c.leadSrc) + cap(c.leadLine)))

	dst = append(slices.Grow(dst, len(c.leadLine)+len(c.text)), c.leadLine...)
	return append(dst, c.text...), err
}

// AppendFTraceRecordJSONL appends the flight-trace JSONL line of one .ftrace
// record body of the given kind; an unknown kind appends nothing. A
// decision decodes into *scratch, reusing its slices. It returns dst
// unchanged and the error when the body does not decode or the record has
// no JSON form.
func AppendFTraceRecordJSONL(dst []byte, kind byte, body []byte, scratch *ExplainRecord) ([]byte, error) {
	switch kind {
	case FTraceKindHeader:
		h, err := DecodeFTraceHeader(body)
		if err != nil {
			return dst, err
		}
		return AppendExplainHeaderJSONL(dst, h)
	case FTraceKindSpan:
		s, err := DecodeFTraceSpan(body)
		if err != nil {
			return dst, err
		}
		return AppendSpanJSONL(dst, &s)
	case FTraceKindDecision:
		if err := DecodeFTraceDecisionInto(scratch, body); err != nil {
			return dst, err
		}
		return AppendDecisionJSONL(dst, scratch)
	case FTraceKindProc:
		p, err := DecodeFTraceProc(body)
		if err != nil {
			return dst, err
		}
		return AppendProcJSONL(dst, p)
	}
	return dst, nil
}
