package obs

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"
)

// jsonlBlockSize is the capacity of one block of a ring's rendered JSONL.
const jsonlBlockSize = 64 << 10

// jsonlCache is the rendered flight-trace JSONL of a ring's live window,
// kept so each record is rendered at most once while it stays in the ring.
// Records are appended and evicted in order, so the window's JSONL is one
// contiguous run of lines: the lines of absolute records [lo, hi) — record
// i is the i-th record the ring ever accepted.
//
// The text lives in append-only blocks of jsonlBlockSize bytes, addressed by
// absolute byte offsets: blocks[0] starts at base, the window's text is
// [start, end). A byte below a block's length never changes once written,
// so AppendJSONL hands the window out as views into the blocks; eviction
// only advances start and lets go of blocks wholly below it, which the
// views still being written keep alive. The lead line is replaced, never
// rewritten. Its own mutex serializes AppendJSONL callers; it is never held
// by an emit, and it is taken before r.mu, never after.
type jsonlCache struct {
	mu         sync.Mutex
	lo, hi     uint64 // absolute records whose lines the blocks hold
	blocks     [][]byte
	base       int   // absolute offset of blocks[0][0]
	start, end int   // absolute offsets of the window's text
	ends       []int // ends[i%len(ends)] is where record i's line ends, for i in [lo, hi)

	framed   []byte // records >= hi, copied out of the arena under r.mu
	leadSrc  []byte // framed evicted header the window opens with, if any
	leadLine []byte // its rendering
	line     []byte // the line being rendered
	dec      ExplainRecord

	renders uint64       // records rendered over the cache's life
	bytes   atomic.Int64 // capacity of the buffers above, for the gauge
}

// maxKeptFramed is the largest framed-record scratch a call keeps for the
// next one: room for ~1 000 manual-mode decisions.
const maxKeptFramed = 256 << 10

// AppendJSONL appends the live ring as flight-trace JSONL to dst, as views
// of immutable text, and returns the views' total length: their
// concatenation is exactly the bytes explain.ConvertFTrace writes for
// Snapshot(), and on failure the same prefix and the same error. A view's
// bytes never change, whatever the ring and later calls do, so a caller may
// write them out with no lock held. The ring mutex is held only to copy the
// records that arrived since the previous call (and the evicted-header lead
// line's record); rendering runs under the cache's own mutex, and a record
// is rendered once while it stays live. A record that fails to render (a
// non-finite float) is never cached: every call re-renders it and stops
// there until wraparound evicts it. Safe on a nil ring.
func (r *TraceRing) AppendJSONL(dst [][]byte) ([][]byte, int, error) {
	if r == nil {
		return dst, 0, nil
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

	if c.ends == nil {
		c.ends = make([]int, r.Cap())
	}
	if c.hi < first { // more than a window arrived: nothing cached is live
		c.lo, c.hi, c.start = first, first, c.end
	} else if first > c.lo {
		c.start = c.ends[(first-1)%uint64(len(c.ends))]
		c.lo = first
	}
	c.dropDead()
	if leadChanged {
		c.leadLine = nil // a view may still hold the old line
		if len(c.leadSrc) > 0 {
			// A header's line has no float in it; it cannot fail.
			kind, body, _, _ := FTraceRecordAt(c.leadSrc, 0)
			c.leadLine, _ = AppendFTraceRecordJSONL(nil, kind, body, &c.dec)
		}
	}

	var err error
	for o := 0; o < len(c.framed); {
		var kind byte
		var body []byte
		if kind, body, o, err = FTraceRecordAt(c.framed, o); err != nil {
			break // cannot happen: the ring framed these records
		}
		c.renders++
		if c.line, err = AppendFTraceRecordJSONL(c.line[:0], kind, body, &c.dec); err != nil {
			break
		}
		c.write(c.line)
		c.ends[c.hi%uint64(len(c.ends))] = c.end
		c.hi++
	}
	if cap(c.framed) > maxKeptFramed {
		c.framed = nil // a cold call's copy of the whole ring; calls between snapshots copy far less
	}
	c.bytes.Store(int64(len(c.blocks)*jsonlBlockSize + 8*len(c.ends) + cap(c.framed) +
		cap(c.leadSrc) + cap(c.leadLine) + cap(c.line)))

	n := c.end - c.start
	if len(c.leadLine) > 0 {
		dst = append(dst, c.leadLine[:len(c.leadLine):len(c.leadLine)])
		n += len(c.leadLine)
	}
	from = c.start - c.base
	for _, b := range c.blocks {
		if from < len(b) {
			dst = append(dst, b[from:len(b):len(b)])
		}
		from = 0
	}
	return dst, n, err
}

// dropDead lets go of the blocks wholly below the window's start, or of
// every block when the window is empty.
func (c *jsonlCache) dropDead() {
	k := (c.start - c.base) / jsonlBlockSize
	c.base += k * jsonlBlockSize
	if c.start == c.end {
		k, c.base = len(c.blocks), c.end
	}
	n := copy(c.blocks, c.blocks[k:])
	clear(c.blocks[n:])
	c.blocks = c.blocks[:n]
}

// write appends p to the blocks, starting a block whenever the last is full.
func (c *jsonlCache) write(p []byte) {
	c.end += len(p)
	for len(p) > 0 {
		if k := len(c.blocks); k == 0 || len(c.blocks[k-1]) == jsonlBlockSize {
			c.blocks = append(c.blocks, make([]byte, 0, jsonlBlockSize))
		}
		last := &c.blocks[len(c.blocks)-1]
		m := min(len(p), jsonlBlockSize-len(*last))
		*last = append(*last, p[:m]...)
		p = p[m:]
	}
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
