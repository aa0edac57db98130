package serve

import (
	"errors"
	"strconv"

	"schedinspector/internal/sim"
)

// ErrNotCanonical is DecodeInspect's only error: the body is not in the
// canonical /v1/inspect shape and must be decoded by encoding/json, which
// owns the wire contract (what is accepted, what is rejected, and every
// error text).
var ErrNotCanonical = errors.New("serve: inspect body is not canonical")

// DecodeInspect decodes a canonical /v1/inspect body into req in one forward
// pass with no reflection and, once req.Queue has the capacity, no
// allocation. Queue items are appended into req.Queue[:0]; every other field
// of req is overwritten.
//
// Canonical means: one JSON object whose keys are the exact-case wire names,
// each at most once, whose values are plain numbers (integral tokens of at
// most 18 digits for the int fields), true/false, the job object and the
// queue array of item objects, with optional whitespace between tokens and
// nothing but whitespace after the closing brace. On such a body the result
// is field-for-field what json.NewDecoder(bytes.NewReader(body)).Decode
// produces. On any other body — including every body encoding/json rejects —
// it returns ErrNotCanonical and req holds garbage: zero it and decode the
// same bytes with encoding/json.
func DecodeInspect(body []byte, req *InspectRequest) error {
	queue := req.Queue[:0]
	*req = InspectRequest{}
	s := inspectScanner{b: body}
	if s.skip() != '{' {
		return ErrNotCanonical
	}
	s.i++
	const (
		kJob = 1 << iota
		kRejections
		kFreeProcs
		kTotalProcs
		kBackfillEnabled
		kBackfillCount
		kQueue
	)
	seen := 0
	for first := true; ; first = false {
		key, more := s.member(first)
		if !more {
			break
		}
		bit, ok := 0, false
		switch string(key) {
		case "job":
			bit, ok = kJob, s.job(&req.Job.Wait, &req.Job.Est, &req.Job.Procs)
		case "rejections":
			bit = kRejections
			req.Rejections, ok = s.int()
		case "free_procs":
			bit = kFreeProcs
			req.FreeProcs, ok = s.int()
		case "total_procs":
			bit = kTotalProcs
			req.TotalProcs, ok = s.int()
		case "backfill_enabled":
			bit = kBackfillEnabled
			req.BackfillEnabled, ok = s.bool()
		case "backfill_count":
			bit = kBackfillCount
			req.BackfillCount, ok = s.int()
		case "queue":
			bit = kQueue
			queue, ok = s.queue(queue)
		}
		if !ok || seen&bit != 0 {
			return ErrNotCanonical
		}
		seen |= bit
	}
	if s.bad || s.skip() != 0 || s.i != len(s.b) {
		return ErrNotCanonical
	}
	if seen&kQueue != 0 {
		// encoding/json leaves an absent queue nil and makes an empty one
		// non-nil; the audit log renders the difference (null vs []).
		if queue == nil {
			queue = []sim.QueueItem{}
		}
		req.Queue = queue
	}
	return nil
}

// inspectScanner is a cursor over a request body. Its methods consume one
// grammar element each and report failure without saying why: every failure
// means "not canonical".
type inspectScanner struct {
	b   []byte
	i   int
	bad bool // member found malformed object syntax
}

// skip advances past JSON whitespace and returns the byte it stops at, 0 at
// the end of the body (a literal NUL is never valid where skip is used).
func (s *inspectScanner) skip() byte {
	for s.i < len(s.b) {
		c := s.b[s.i]
		if c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
		s.i++
	}
	return 0
}

// member advances to the next member of the object the cursor is inside:
// past the ',' (unless first), the quoted key and the ':', leaving the cursor
// on the value's first byte. more is false at the closing '}' — or at
// malformed syntax, which also sets s.bad. The key is returned raw: a key
// with an escape in it never equals a wire name, which is the intent.
func (s *inspectScanner) member(first bool) (key []byte, more bool) {
	c := s.skip()
	if c == '}' {
		s.i++
		return nil, false
	}
	if !first {
		if c != ',' {
			s.bad = true
			return nil, false
		}
		s.i++
		c = s.skip()
	}
	if c != '"' {
		s.bad = true
		return nil, false
	}
	s.i++
	start := s.i
	for s.i < len(s.b) && s.b[s.i] != '"' {
		s.i++
	}
	key = s.b[start:s.i]
	s.i++ // closing quote; past the end when unterminated, caught below
	if s.skip() != ':' {
		s.bad = true
		return nil, false
	}
	s.i++
	s.skip()
	return key, true
}

// job decodes the {wait, est, procs} object shared by the inspected job and
// every queue item.
func (s *inspectScanner) job(wait, est *float64, procs *int) bool {
	if s.skip() != '{' {
		return false
	}
	s.i++
	const (
		kWait = 1 << iota
		kEst
		kProcs
	)
	seen := 0
	for first := true; ; first = false {
		key, more := s.member(first)
		if !more {
			return !s.bad
		}
		bit, ok := 0, false
		switch string(key) {
		case "wait":
			bit = kWait
			*wait, ok = s.float()
		case "est":
			bit = kEst
			*est, ok = s.float()
		case "procs":
			bit = kProcs
			*procs, ok = s.int()
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}

// queue decodes the array of queue items, appending to dst.
func (s *inspectScanner) queue(dst []sim.QueueItem) ([]sim.QueueItem, bool) {
	if s.skip() != '[' {
		return dst, false
	}
	s.i++
	if s.skip() == ']' {
		s.i++
		return dst, true
	}
	for {
		dst = append(dst, sim.QueueItem{})
		it := &dst[len(dst)-1]
		if !s.job(&it.Wait, &it.Est, &it.Procs) {
			return dst, false
		}
		switch s.skip() {
		case ',':
			s.i++
		case ']':
			s.i++
			return dst, true
		default:
			return dst, false
		}
	}
}

func (s *inspectScanner) bool() (v, ok bool) {
	rest := s.b[s.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
		return false, true
	}
	return false, false
}

// number scans one token of the JSON number grammar at the cursor. ok is
// false when there is none. integral reports a token with neither fraction
// nor exponent and at most 18 digits, whose magnitude is then in u (18
// digits always fit an int64). Whatever follows the token is the caller's
// next grammar element, so "01" or "1x" fail there.
func (s *inspectScanner) number() (tok []byte, u uint64, neg, integral, ok bool) {
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	digits := i
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for i < len(b) && b[i]-'0' <= 9 {
			u = u*10 + uint64(b[i]-'0') // wraps past 19 digits; unused then
			i++
		}
	default:
		return nil, 0, false, false, false
	}
	integral = i-digits <= 18
	if i < len(b) && b[i] == '.' {
		integral = false
		i++
		frac := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		if i == frac {
			return nil, 0, false, false, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integral = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		exp := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		if i == exp {
			return nil, 0, false, false, false
		}
	}
	tok = b[s.i:i]
	s.i = i
	return tok, u, neg, integral, true
}

// int decodes an int field: integral tokens only, as encoding/json's
// ParseInt would have it. "1.0", "1e2" and 19-digit tokens are not canonical.
func (s *inspectScanner) int() (int, bool) {
	_, u, neg, integral, ok := s.number()
	if !ok || !integral {
		return 0, false
	}
	n := int64(u)
	if neg {
		n = -n
	}
	return int(n), int64(int(n)) == n // false where int is 32 bits and n overflows it
}

// float decodes a float64 field. An integral token below 1e15 converts
// exactly (it is under 2^53); negating afterwards keeps "-0" negative zero,
// as ParseFloat does. Every other token goes through ParseFloat itself, the
// function encoding/json calls, so rounding is identical by construction; an
// out-of-range token is its error and not canonical.
func (s *inspectScanner) float() (float64, bool) {
	tok, u, neg, integral, ok := s.number()
	if !ok {
		return 0, false
	}
	if integral && u < 1e15 {
		f := float64(u)
		if neg {
			f = -f
		}
		return f, true
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}
