package obs_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"sync"
	"testing"

	"schedinspector/internal/explain"
	"schedinspector/internal/obs"
)

// The oracle for TraceRing.AppendJSONL is explain.ConvertFTrace over the
// ring's Snapshot: the same bytes, and on failure the same prefix and the
// same error text. ringScript turns a byte string into a flight-recorder
// history — decisions under changing meta (slots grow with the wide one),
// spans of two attribute shapes, proc samples, bursts past the ring's
// capacity — with oracle checks between steps, so the seeded histories
// below and FuzzRingJSONL drive the same interpreter.

// Feature-name sets a script switches between: a manual-sized one, a small
// one and one as wide as native mode, whose records outgrow the slots.
var scriptMetas = [][]string{
	{"wait", "est", "procs", "free", "queue", "util", "rej", "bf"},
	{"a<b>", "é", "c"},
	wideNames(102),
}

func wideNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("f%03d", i)
	}
	return names
}

// scriptFloats are the finite values a selector byte in [240, 254) picks:
// the 'e'-format edges, a denormal, negative zero, long renderings.
var scriptFloats = []float64{
	math.Copysign(0, -1), 1e-7, 9.999999e-7, 1e-6, 1e21, 9.99e20, 5e-324,
	math.MaxFloat64, -math.SmallestNonzeroFloat64, 0.1, 1.0 / 3, 123456.789012345, -2.5e-8, 1e300,
}

type ringScript struct {
	b     []byte
	r     *obs.TraceRing
	names []string
	seq   int
	held  []heldViews

	lastTotal uint64
	stats     scriptStats
}

// heldViews are the views an earlier call returned and the bytes they read
// then; later emits and calls must not change them.
type heldViews struct {
	views [][]byte
	text  []byte
}

// maxHeld bounds how many calls' views a script keeps re-checking.
const maxHeld = 8

// scriptStats counts what a history exercised.
type scriptStats struct {
	checks, overCap, leads, errors, zeroNew int
}

func (s *ringScript) u8() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *ringScript) u64() uint64 {
	var buf [8]byte
	n := copy(buf[:], s.b)
	s.b = s.b[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

// float reads a mostly small value; 0xff 0xff selects NaN or an infinity,
// a record with no JSON form.
func (s *ringScript) float() float64 {
	c := s.u8()
	switch {
	case c < 240:
		return float64(int(c)-100) / 8
	case c < 254:
		return scriptFloats[c-240]
	case c == 254:
		return math.Float64frombits(s.u64())
	}
	switch s.u8() {
	case 0xff:
		return math.NaN()
	case 0xfe:
		return math.Inf(-1)
	case 0xfd:
		return math.Inf(1)
	}
	return 0.5
}

func (s *ringScript) floats(n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = s.float()
	}
	return vs
}

func (s *ringScript) decision() obs.ExplainRecord {
	s.seq++
	c := s.u8()
	return obs.ExplainRecord{Epoch: int(c & 3), Traj: int(c >> 2), Seq: s.seq, Time: s.float(),
		JobID: int(s.u8()), Wait: s.float(), Procs: 1 + int(s.u8()), Est: s.float(),
		Rejections: int(c & 7), MaxRejections: 72, QueueLen: int(s.u8()), FreeProcs: 16, TotalProcs: 128,
		Utilization: s.float(), Features: s.floats(len(s.names)), Logits: s.floats(2), Probs: s.floats(2),
		Action: int(c & 1), Sampled: c&2 != 0, Rejected: c&1 == 1}
}

// burst emits n copies of one decision, sequence numbers advancing.
func (s *ringScript) burst(n int) {
	rec := s.decision()
	for i := 0; i < n; i++ {
		rec.Seq = s.seq + i
		s.r.EmitDecision(&rec)
	}
	s.seq += n
}

// check compares AppendJSONL's views, appended after a prefix view, with
// the oracle, and re-reads the views of earlier calls.
func (s *ringScript) check(t testing.TB) {
	t.Helper()
	const prefix = "prefix\n"
	total := s.r.Total()
	switch n := total - s.lastTotal; {
	case n == 0:
		s.stats.zeroNew++
	case n > uint64(s.r.Cap()):
		s.stats.overCap++
	}
	s.lastTotal = total
	views, n, err := s.r.AppendJSONL([][]byte{[]byte(prefix)})
	var want bytes.Buffer
	wantErr := explain.ConvertFTrace(bytes.NewReader(s.r.Snapshot()), &want)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("after %d records: error %v, ConvertFTrace %v", total, err, wantErr)
	}
	if string(views[0]) != prefix {
		t.Fatalf("after %d records: the prefix view was overwritten: %q", total, views[0])
	}
	body := bytes.Join(views[1:], nil)
	if !bytes.Equal(body, want.Bytes()) || n != len(body) {
		t.Fatalf("after %d records (%d live, capacity %d), length %d:\n got %q\nwant %q",
			total, s.r.Len(), s.r.Cap(), n, body, want.Bytes())
	}
	s.recheck(t)
	if len(s.held) == maxHeld {
		s.held = append(s.held[:0], s.held[1:]...)
	}
	s.held = append(s.held, heldViews{views[1:], body})
	s.stats.checks++
	if err != nil {
		s.stats.errors++
	} else if bytes.Count(body, []byte{'\n'}) == s.r.Len()+1 {
		s.stats.leads++ // the window opens with the evicted header
	}
}

// recheck fails when a view an earlier call returned reads other bytes now.
func (s *ringScript) recheck(t testing.TB) {
	t.Helper()
	for i, h := range s.held {
		if got := bytes.Join(h.views, nil); !bytes.Equal(got, h.text) {
			t.Fatalf("after %d records: the views of the call %d back changed:\n got %.300q\nwant %.300q",
				s.r.Total(), len(s.held)-i, got, h.text)
		}
	}
}

// run interprets the whole script, then checks once more.
func (s *ringScript) run(t testing.TB) {
	s.r = obs.NewTraceRing(2 + int(s.u8()%30))
	for len(s.b) > 0 {
		switch op := s.u8() % 16; {
		case op < 7:
			rec := s.decision()
			s.r.EmitDecision(&rec)
		case op == 7:
			sp := obs.Span{ID: obs.SpanID(s.u64()), Parent: obs.SpanID(s.u8()), Name: "episode",
				WallStart: int64(s.u8()), WallEnd: int64(s.u8()) << 40, SimStart: s.float(), SimEnd: s.float()}
			for n := s.u8() % 4; n > 0; n-- {
				sp.Attrs = append(sp.Attrs, obs.Attr{Key: "k ", Num: s.float(), Str: string(rune(s.u8()))})
			}
			s.r.EmitSpan(&sp)
		case op == 8:
			verdict := "accept"
			if s.u8()&1 == 1 {
				verdict = "reject"
			}
			sp := obs.Span{ID: obs.SpanID(s.u64()), Parent: 3, Name: "decision", WallStart: 7, WallEnd: 7,
				SimStart: s.float(), SimEnd: s.float(), Attrs: []obs.Attr{{Key: "action", Str: verdict}}}
			for i, v := range s.floats(3) {
				sp.Attrs = append(sp.Attrs, obs.Attr{Key: [...]string{"job", "procs", "queue"}[i], Num: v})
			}
			s.r.EmitSpan(&sp)
		case op == 9:
			s.r.EmitProc(obs.ProcStats{Wall: int64(s.u64()), Goroutines: int(s.u8()), HeapAlloc: s.u64(),
				HeapSys: s.u64(), NumGC: uint32(s.u8()), PauseTotal: s.u64()})
		case op == 10:
			m := int(s.u8()) % len(scriptMetas)
			s.names = scriptMetas[m]
			s.r.SetMeta(s.names, fmt.Sprintf("mode%d", m), 72+m)
			s.recheck(t)
		case op < 13:
			s.check(t)
		case op == 13:
			s.burst(int(s.u8()))
			s.check(t)
		case op == 14:
			s.burst(s.r.Cap() + int(s.u8())%s.r.Cap())
			s.check(t)
		default:
			s.check(t)
			s.check(t)
		}
	}
	s.check(t)
}

// TestAppendJSONLMatchesConvert runs seeded random histories through the
// oracle after every step that calls: manual, small and native-width meta
// (slots grow), spans of both attribute shapes and proc samples, meta
// changes with the evicted-header lead, wraparound many times over, calls
// with 0, some and more than a ring's worth of new records, and non-finite
// records.
func TestAppendJSONLMatchesConvert(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	var all scriptStats
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		data := make([]byte, 3000+rng.Intn(3000))
		rng.Read(data)
		for k := 0; k < 4; k++ { // a few 0xff 0xff pairs: non-finite floats
			i := rng.Intn(len(data) - 1)
			data[i], data[i+1] = 0xff, 0xff
		}
		s := &ringScript{b: data}
		s.run(t)
		if total, capacity := s.r.Total(), uint64(s.r.Cap()); total <= 2*capacity {
			t.Fatalf("seed %d: %d records never wrapped a %d-record ring twice", seed, total, capacity)
		}
		all.checks += s.stats.checks
		all.overCap += s.stats.overCap
		all.leads += s.stats.leads
		all.errors += s.stats.errors
		all.zeroNew += s.stats.zeroNew
	}
	if all.overCap == 0 || all.leads == 0 || all.errors == 0 || all.zeroNew == 0 {
		t.Fatalf("the histories missed a case: %+v", all)
	}
	t.Logf("%+v", all)
}

// TestAppendJSONLNonFinite pins the failure contract: a record with no JSON
// form ends the output with the same prefix and error ConvertFTrace gives,
// every call while it stays live, and once wraparound evicts it the output
// is whole again.
func TestAppendJSONLNonFinite(t *testing.T) {
	r := obs.NewTraceRing(8)
	r.SetMeta([]string{"a"}, "manual", 72)
	good := obs.ExplainRecord{Seq: 1, Features: []float64{0.5}}
	bad := obs.ExplainRecord{Seq: 2, Features: []float64{math.Inf(1)}}
	s := &ringScript{r: r}
	r.EmitDecision(&good)
	s.check(t)
	r.EmitDecision(&bad)
	r.EmitDecision(&good)
	for i := 0; i < 2; i++ {
		s.check(t)
		views, _, err := r.AppendJSONL(nil)
		if lines := bytes.Count(bytes.Join(views, nil), []byte{'\n'}); err == nil || lines != 2 {
			t.Fatalf("call %d: %d lines, error %v; want the header and one decision, then the error", i, lines, err)
		}
	}
	for i := 0; i < r.Cap(); i++ {
		r.EmitDecision(&good)
		s.check(t)
	}
	if _, _, err := r.AppendJSONL(nil); err != nil {
		t.Fatalf("the failing record was evicted, but the call still fails: %v", err)
	}
	if s.stats.errors == 0 || s.stats.leads == 0 {
		t.Fatalf("the error or the lead path never ran: %+v", s.stats)
	}
	if views, n, err := (*obs.TraceRing)(nil).AppendJSONL([][]byte{[]byte("x")}); len(views) != 1 || n != 0 || err != nil {
		t.Fatalf("nil ring appends %q (length %d), %v", views, n, err)
	}
}

// TestAppendJSONLViewsImmutable: the views a call returns read the same
// bytes however the ring and its rendered window move on — eviction across
// several blocks, a reset after more than Cap() new records, a lead-line
// change, a failing record — and while other goroutines emit and snapshot
// (run under -race by the Makefile race target).
func TestAppendJSONLViewsImmutable(t *testing.T) {
	s := &ringScript{r: obs.NewTraceRing(512), names: scriptMetas[2]}
	s.r.SetMeta(s.names, "native", 72)
	emit := func(n int) {
		for i := 0; i < n; i++ {
			rec := s.decision()
			s.r.EmitDecision(&rec)
		}
	}
	emit(300) // ~900-byte lines: the window spans several 64 KiB blocks
	s.check(t)
	for _, n := range []int{200, 400, 450} {
		emit(n)
		s.check(t)
	}
	emit(s.r.Cap() + 10)
	s.check(t)
	s.names = scriptMetas[0]
	s.r.SetMeta(s.names, "manual", 72)
	emit(s.r.Cap()) // the lead line becomes the manual header's
	s.check(t)
	s.r.EmitDecision(&obs.ExplainRecord{Seq: -1, Features: []float64{math.NaN()}})
	emit(5)
	s.check(t)
	emit(s.r.Cap())
	s.check(t)
	if len(s.held) != s.stats.checks || s.stats.overCap == 0 || s.stats.leads == 0 || s.stats.errors == 0 {
		t.Fatalf("%d views held over %+v: a case did not run", len(s.held), s.stats)
	}

	t.Run("concurrent", func(t *testing.T) {
		r := obs.NewTraceRing(256)
		var emitters, readers sync.WaitGroup
		for g := 0; g < 2; g++ {
			emitters.Add(1)
			go func(g int) {
				defer emitters.Done()
				rec := obs.ExplainRecord{Traj: g, Features: make([]float64, 40), Probs: []float64{0.25, 0.75}}
				for i := 0; i < 3000; i++ {
					if i%700 == 0 {
						r.SetMeta(wideNames(40)[:20+20*(i/700%2)], "m", g)
					}
					rec.Seq, rec.Features = i, rec.Features[:20+20*(i/700%2)]
					r.EmitDecision(&rec)
				}
			}(g)
		}
		done := make(chan struct{})
		views := make(chan [][]byte)
		for g := 0; g < 2; g++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					v, _, err := r.AppendJSONL(nil)
					if err != nil {
						t.Error(err)
						return
					}
					select {
					case views <- v:
					case <-done:
						return
					}
				}
			}()
		}
		// The writer reads every byte of each body (a CRC where a client
		// would have the socket), and reads the previous body again after
		// later emits and calls: the same checksum.
		var prev [][]byte
		var prevSum uint32
		sum := func(vs [][]byte) uint32 {
			h := crc32.NewIEEE()
			for _, v := range vs {
				h.Write(v)
			}
			return h.Sum32()
		}
		stopped, failed := make(chan struct{}), make(chan struct{})
		go func() { emitters.Wait(); close(stopped) }()
		go func() { readers.Wait(); close(failed) }() // readers return early only on an error
		defer readers.Wait()
		defer close(done)
		for bodies := 0; ; bodies++ {
			var v [][]byte
			select {
			case v = <-views:
			case <-failed:
				return
			}
			if prev != nil && sum(prev) != prevSum {
				t.Fatalf("body %d changed after it was handed out", bodies-1)
			}
			prev, prevSum = v, sum(v)
			select {
			case <-stopped:
				if bodies >= 20 {
					return
				}
			default:
			}
		}
	})
}

// FuzzRingJSONL decodes the fuzz bytes into a history of emits, meta
// changes and AppendJSONL calls (see ringScript), holds every call to
// ConvertFTrace over the ring's Snapshot, and re-reads the views of earlier
// calls after each call and meta change. Run with
// `go test -fuzz FuzzRingJSONL ./internal/obs` (make fuzz-smoke does).
func FuzzRingJSONL(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 10, 0, 0, 1, 2, 3, 11, 14, 9, 12})
	f.Add([]byte{1, 10, 10, 2, 0, 5, 6, 11, 10, 1, 13, 40, 11, 15})
	f.Add([]byte{5, 0, 10, 0, 1, 0, 0, 0xff, 0xff, 11, 14, 7, 11})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		data := make([]byte, 64<<i)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		(&ringScript{b: data}).run(t)
	})
}
