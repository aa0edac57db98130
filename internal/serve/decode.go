package serve

import (
	"errors"
	"math"
	"math/bits"
	"strconv"

	"schedinspector/internal/sim"
)

// ErrNotCanonical is the single-pass decoders' only error: the body is not
// in its route's canonical shape and must be decoded by encoding/json, which
// owns the wire contract (what is accepted, what is rejected, and every
// error text).
var ErrNotCanonical = errors.New("serve: request body is not canonical")

// DecodeInspect decodes a canonical /v1/inspect body into req in one forward
// pass with no reflection and, once req.Queue has the capacity, no
// allocation. Queue items are appended into req.Queue[:0]; every other field
// of req is overwritten.
//
// Canonical means: one JSON object whose keys are the exact-case wire names,
// each at most once, whose values are plain numbers (integral tokens in the
// field's range for the int fields), true/false, the job object and the
// queue array of item objects, with optional whitespace between tokens and
// nothing but whitespace after the closing brace. On such a body the result
// is field-for-field what json.NewDecoder(bytes.NewReader(body)).Decode
// produces. On any other body — including every body encoding/json rejects —
// it returns ErrNotCanonical and req holds garbage: zero it and decode the
// same bytes with encoding/json.
func DecodeInspect(body []byte, req *InspectRequest) error {
	queue := req.Queue[:0]
	*req = InspectRequest{}
	s := scanner{b: body}
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
	if !s.end() {
		return ErrNotCanonical
	}
	if seen&kQueue != 0 {
		// encoding/json leaves an absent queue nil and makes an empty one
		// non-nil, and the decoder's contract is encoding/json's result.
		if queue == nil {
			queue = []sim.QueueItem{}
		}
		req.Queue = queue
	}
	return nil
}

// DecodeSimulate is DecodeInspect's twin for /v1/simulate, under the same
// contract: a canonical body is decoded into req in one pass, jobs appended
// into req.Jobs[:0]; any other body returns ErrNotCanonical for encoding/json
// to decode. Canonical here means the exact-case wire names at most once
// each; plain numbers, integral and in range for max_procs, procs and the
// int64 seed; true/false; strings of printable ASCII other than '"' and '\'
// (whose bytes are their value); and the jobs array of job objects.
func DecodeSimulate(body []byte, req *SimulateRequest) error {
	jobs := req.Jobs[:0]
	*req = SimulateRequest{}
	s := scanner{b: body}
	if s.skip() != '{' {
		return ErrNotCanonical
	}
	s.i++
	const (
		kPolicy = 1 << iota
		kBackfill
		kConservative
		kMaxProcs
		kInspector
		kSeed
		kJobs
	)
	seen := 0
	for first := true; ; first = false {
		key, more := s.member(first)
		if !more {
			break
		}
		bit, ok := 0, false
		switch string(key) {
		case "policy":
			bit = kPolicy
			req.Policy, ok = s.string()
		case "backfill":
			bit = kBackfill
			req.Backfill, ok = s.bool()
		case "conservative":
			bit = kConservative
			req.Conservative, ok = s.bool()
		case "max_procs":
			bit = kMaxProcs
			req.MaxProcs, ok = s.int()
		case "inspector":
			bit = kInspector
			req.Inspector, ok = s.string()
		case "seed":
			bit = kSeed
			req.Seed, ok = s.int64()
		case "jobs":
			bit = kJobs
			jobs, ok = s.jobs(jobs)
		}
		if !ok || seen&bit != 0 {
			return ErrNotCanonical
		}
		seen |= bit
	}
	if !s.end() {
		return ErrNotCanonical
	}
	if seen&kJobs != 0 {
		if jobs == nil {
			jobs = []SimJob{} // encoding/json's empty array is non-nil
		}
		req.Jobs = jobs
	}
	return nil
}

// scanner is a cursor over a request body. Its methods consume one
// grammar element each and report failure without saying why: every failure
// means "not canonical".
type scanner struct {
	b   []byte
	i   int
	bad bool // member or elem found malformed syntax
}

// skip advances past JSON whitespace and returns the byte it stops at, 0 at
// the end of the body (a literal NUL is never valid where skip is used). It
// mostly stops where it starts, on a token, which the first compare settles.
func (s *scanner) skip() byte {
	for s.i < len(s.b) {
		c := s.b[s.i]
		if c > ' ' || c != ' ' && c != '\n' && c != '\t' && c != '\r' {
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
func (s *scanner) member(first bool) (key []byte, more bool) {
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
	b, i := s.b, s.i+1
	for i < len(b) && b[i] != '"' {
		i++
	}
	key = b[s.i+1 : i]
	s.i = i + 1 // closing quote; past the end when unterminated, caught below
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
func (s *scanner) job(wait, est *float64, procs *int) bool {
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

// simJob decodes one {submit, run, est, procs} object of a simulate body.
func (s *scanner) simJob(j *SimJob) bool {
	if s.skip() != '{' {
		return false
	}
	s.i++
	const (
		kSubmit = 1 << iota
		kRun
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
		case "submit":
			bit = kSubmit
			j.Submit, ok = s.float()
		case "run":
			bit = kRun
			j.Run, ok = s.float()
		case "est":
			bit = kEst
			j.Est, ok = s.float()
		case "procs":
			bit = kProcs
			j.Procs, ok = s.int()
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}

// elem advances to the next element of the array the cursor is inside: past
// the ',' unless first, leaving the cursor on the element. more is false at
// the closing ']' — or at malformed syntax, which also sets s.bad.
func (s *scanner) elem(first bool) (more bool) {
	c := s.skip()
	if c == ']' {
		s.i++
		return false
	}
	if !first {
		if c != ',' {
			s.bad = true
			return false
		}
		s.i++
	}
	return true
}

// queue decodes the array of queue items, appending to dst.
func (s *scanner) queue(dst []sim.QueueItem) ([]sim.QueueItem, bool) {
	if s.skip() != '[' {
		return dst, false
	}
	s.i++
	for first := true; s.elem(first); first = false {
		dst = append(dst, sim.QueueItem{})
		it := &dst[len(dst)-1]
		if !s.job(&it.Wait, &it.Est, &it.Procs) {
			return dst, false
		}
	}
	return dst, !s.bad
}

// jobs decodes the array of simulate jobs, appending to dst.
func (s *scanner) jobs(dst []SimJob) ([]SimJob, bool) {
	if s.skip() != '[' {
		return dst, false
	}
	s.i++
	for first := true; s.elem(first); first = false {
		dst = append(dst, SimJob{})
		if !s.simJob(&dst[len(dst)-1]) {
			return dst, false
		}
	}
	return dst, !s.bad
}

// end reports whether the top-level object closed cleanly and only
// whitespace follows it.
func (s *scanner) end() bool {
	return !s.bad && s.skip() == 0 && s.i == len(s.b)
}

// string decodes a string of printable ASCII other than '"' and '\', whose
// bytes are the value encoding/json decodes. An escape, a control byte or a
// non-ASCII byte is not canonical.
func (s *scanner) string() (string, bool) {
	b := s.b
	if s.i >= len(b) || b[s.i] != '"' {
		return "", false
	}
	for i := s.i + 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			v := string(b[s.i+1 : i])
			s.i = i + 1
			return v, true
		case c < ' ' || c > '~' || c == '\\':
			return "", false
		}
	}
	return "", false
}

func (s *scanner) bool() (v, ok bool) {
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

// number scans one token of the JSON number grammar at the cursor, reading
// each digit once. ok is false when there is none. plain reports a token with
// no exponent part and at most 19 digits after its leading zeros; its
// magnitude is then w / 10^k exactly, w being the integer and fraction digits
// read as one decimal integer (19 digits always fit a uint64; past that w has
// wrapped and is unused) and k the number of fraction digits. Whatever
// follows the token is the caller's next grammar element, so "01" or "1x"
// fail there.
func (s *scanner) number() (tok []byte, w uint64, k int, neg, plain, ok bool) {
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	sig := i // the first digit that counts
	switch {
	case i < len(b) && b[i] == '0':
		i++
		sig = i
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for i < len(b) && b[i]-'0' <= 9 {
			w = w*10 + uint64(b[i]-'0')
			i++
		}
	default:
		return nil, 0, 0, false, false, false
	}
	digits := i - sig
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for digits == 0 && i < len(b) && b[i] == '0' {
			i++
		}
		sig = i
		for i < len(b) && b[i]-'0' <= 9 {
			w = w*10 + uint64(b[i]-'0')
			i++
		}
		if k = i - frac; k == 0 {
			return nil, 0, 0, false, false, false
		}
		digits += i - sig
	}
	plain = digits <= 19
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		plain = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		exp := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		if i == exp {
			return nil, 0, 0, false, false, false
		}
	}
	tok = b[s.i:i]
	s.i = i
	return tok, w, k, neg, plain, true
}

// int64 decodes an int64 field: integral tokens in int64's range only, as
// encoding/json's ParseInt would have it. "1.0", "1e2" and tokens past the
// range are not canonical.
func (s *scanner) int64() (int64, bool) {
	_, w, k, neg, plain, ok := s.number()
	switch {
	case !ok || !plain || k != 0:
		return 0, false
	case neg:
		return -int64(w), w <= 1<<63 // -int64(1<<63) wraps to MinInt64 itself
	}
	return int64(w), w <= math.MaxInt64
}

// int decodes an int field: int64's tokens that also fit an int.
func (s *scanner) int() (int, bool) {
	n, ok := s.int64()
	return int(n), ok && int64(int(n)) == n // false where int is 32 bits and n overflows it
}

// pow10 and pow5 are the exact divisors of float: 1e22 is the largest power
// of ten a float64 holds exactly, and 5^22 is below 2^52.
var (
	pow10 = [23]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
		1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}
	pow5 = func() (t [23]uint64) {
		t[0] = 1
		for k := 1; k < len(t); k++ {
			t[k] = 5 * t[k-1]
		}
		return t
	}()
)

// float decodes a float64 field to the bits strconv.ParseFloat — the function
// encoding/json calls — returns for the token, which is the correctly rounded
// value. A plain token with at most 22 fraction digits never reaches strconv:
// below 2^53 w converts exactly and so does 10^k, which leaves one IEEE
// division, correctly rounded (ParseFloat's own exact case); from 2^53 up
// divPow10 rounds the integer quotient. The sign is applied last, so "-0.0"
// stays negative zero. Every other token is ParseFloat's; one that is out of
// range is its error and not canonical.
func (s *scanner) float() (float64, bool) {
	tok, w, k, neg, plain, ok := s.number()
	if !ok {
		return 0, false
	}
	if !plain || k >= len(pow10) {
		f, err := strconv.ParseFloat(string(tok), 64)
		return f, err == nil
	}
	var f float64
	switch {
	case w >= 1<<53:
		f = divPow10(w, k)
	case k > 0:
		f = float64(w) / pow10[k]
	default:
		f = float64(w)
	}
	if neg {
		f = -f
	}
	return f, true
}

// divPow10 returns w / 10^k rounded half-to-even to a float64, for w >= 2^53
// and k <= 22, in integer arithmetic. w and 5^k are shifted up to set their
// top bits, so n/d is in (1/2, 2) and w / 10^k = n/d * 2^(ld-lw-k). Div64
// requires hi < d: hi = n>>1 < 2^63 <= d. Its quotient floor(n/d * 2^63)
// has 63 or 64 bits, at least ten below the 53 kept, and a non-zero remainder
// is the sticky bit below those. The result is at least 2^53 / 1e22, so always
// normal, and a mantissa that rounds up to 2^53 carries into the exponent
// field by the addition.
func divPow10(w uint64, k int) float64 {
	lw, ld := bits.LeadingZeros64(w), bits.LeadingZeros64(pow5[k])
	n, d := w<<lw, pow5[k]<<ld
	q, r := bits.Div64(n>>1, n<<63, d)
	lq := bits.LeadingZeros64(q) // 0 or 1
	q <<= lq
	if r != 0 {
		q |= 1
	}
	m := q >> 11
	if low := q & (1<<11 - 1); low > 1<<10 || low == 1<<10 && m&1 == 1 {
		m++
	}
	return math.Float64frombits(uint64(1022+ld-lw-k-lq)<<52 + m)
}
