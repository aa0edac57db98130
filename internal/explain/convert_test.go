package explain

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"schedinspector/internal/core"
	"schedinspector/internal/mutants"
	"schedinspector/internal/obs"
)

// referenceConvert is ConvertFTrace as it was built on encoding/json: the
// same segment walk, every record decoded afresh and rendered as
// json.Marshal of its wire wrapper plus a newline. It returns the lines
// written before the first error and that error.
func referenceConvert(img []byte) (string, error) {
	type wire struct {
		Kind string `json:"kind"`
	}
	var out bytes.Buffer
	walker, err := newFTraceWalker(bytes.NewReader(img))
	if err != nil {
		return "", err
	}
	for {
		seg, err := walker.next()
		if err == io.EOF {
			return out.String(), nil
		}
		if err != nil {
			return out.String(), err
		}
		err = walkRecords(walker.segNo-1, seg, func(kind byte, body []byte) error {
			var v any
			var err error
			switch kind {
			case obs.FTraceKindHeader:
				var h obs.ExplainHeader
				h, err = obs.DecodeFTraceHeader(body)
				h.Kind = "explain_header"
				v = h
			case obs.FTraceKindSpan:
				var s obs.Span
				s, err = obs.DecodeFTraceSpan(body)
				v = struct {
					wire
					obs.Span
				}{wire{"span"}, s}
			case obs.FTraceKindDecision:
				var d obs.ExplainRecord
				d, err = obs.DecodeFTraceDecision(body)
				v = struct {
					wire
					obs.ExplainRecord
				}{wire{"decision"}, d}
			case obs.FTraceKindProc:
				var p obs.ProcStats
				p, err = obs.DecodeFTraceProc(body)
				v = struct {
					wire
					obs.ProcStats
				}{wire{"proc"}, p}
			default:
				return nil
			}
			if err != nil {
				return err
			}
			b, err := json.Marshal(v)
			if err != nil {
				return err
			}
			out.Write(b)
			out.WriteByte('\n')
			return nil
		})
		if err != nil {
			return out.String(), err
		}
	}
}

// checkConvertMatchesReference converts img both ways and requires the same
// lines and the same error text (or both nil).
func checkConvertMatchesReference(t *testing.T, img []byte) {
	t.Helper()
	var got bytes.Buffer
	err := ConvertFTrace(bytes.NewReader(img), &got)
	want, wantErr := referenceConvert(img)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("image %x:\nerror %v\n  ref %v", img, err, wantErr)
	}
	if got.String() != want {
		t.Fatalf("image %x:\n got %q\nwant %q", img, got.String(), want)
	}
}

// sealFTrace frames payload as a one-segment .ftrace image with a valid CRC.
func sealFTrace(payload []byte) []byte {
	img := obs.AppendFTraceFileHeader(nil)
	img = binary.LittleEndian.AppendUint32(img, uint32(len(payload)))
	img = binary.LittleEndian.AppendUint32(img, obs.FTraceSegmentCRC(payload))
	return append(img, payload...)
}

// TestConvertFTraceMutants sweeps every prefix and single-bit flip of
// goldenFTrace through ConvertFTrace and the encoding/json reference: same
// lines, same error or nil, never a panic or a hang. The CRC turns nearly
// every flip of the image into a segment error, so the sweep runs a second
// time over the segment payload re-sealed with a fresh CRC; those mutants
// reach the record decoders and the appenders, flipped floats into NaN and
// ±Inf included.
func TestConvertFTraceMutants(t *testing.T) {
	golden := goldenFTrace(t)
	checkConvertMatchesReference(t, golden)
	mutants.Each(golden, func(m []byte) { checkConvertMatchesReference(t, m) })

	const segStart = 12 + 8 // file header + segment header
	if n := binary.LittleEndian.Uint32(golden[12:]); int(n) != len(golden)-segStart {
		t.Fatalf("goldenFTrace is not one segment: payload %d of %d bytes", n, len(golden)-segStart)
	}
	mutants.Each(golden[segStart:], func(m []byte) { checkConvertMatchesReference(t, sealFTrace(m)) })
}

// decisionRing is a serving ring after n manual-mode decisions with seeded
// values; its snapshot is the /v1/trace/snapshot input.
func decisionRing(n int) *obs.TraceRing {
	ring := obs.NewTraceRing(n+1, 0)
	names := core.ManualFeatures.FeatureNames()
	ring.SetMeta(names, core.ManualFeatures.String(), 72)
	emitDecisions(ring, rand.New(rand.NewSource(int64(n))), 0, n)
	return ring
}

func decisionImage(n int) []byte { return decisionRing(n).Snapshot() }

// emitDecisions emits n manual-mode decisions with seeded values, sequence
// numbers from seq.
func emitDecisions(ring *obs.TraceRing, rng *rand.Rand, seq, n int) {
	feat := make([]float64, len(core.ManualFeatures.FeatureNames()))
	for i := seq; i < seq+n; i++ {
		for j := range feat {
			feat[j] = rng.Float64()
		}
		logit := rng.NormFloat64()
		p := 1 / (1 + math.Exp(-logit))
		total := 64 + rng.Intn(4096)
		free := rng.Intn(total + 1)
		ring.EmitDecision(&obs.ExplainRecord{Seq: i, Wait: rng.ExpFloat64() * 600,
			Procs: 1 + rng.Intn(total), Est: float64(60 * (1 + rng.Intn(1440))),
			Rejections: rng.Intn(3), MaxRejections: 72, QueueLen: 64 + rng.Intn(193),
			FreeProcs: free, TotalProcs: total, Utilization: 1 - float64(free)/float64(total),
			Features: feat, Logits: []float64{0, logit}, Probs: []float64{1 - p, p},
			Action: i & 1, Sampled: true, Rejected: i&1 == 1})
	}
}

// BenchmarkConvertFTrace converts a 4 096-decision serving snapshot to
// JSONL: the work behind explain -convert, and the baseline of the
// BenchmarkAppendJSONL pair below.
func BenchmarkConvertFTrace(b *testing.B) {
	img := decisionImage(4096)
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ConvertFTrace(bytes.NewReader(img), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAppendJSONL times TraceRing.AppendJSONL on a full 4 096-decision
// ring after fresh new decisions per call (untimed emits), the views
// appended to one reused slice as /v1/trace/snapshot does. The route
// itself, views written through ServeHTTP, is BenchmarkTraceSnapshotJSONL
// in internal/serve.
func benchAppendJSONL(b *testing.B, fresh int) {
	ring := decisionRing(4096)
	rng := rand.New(rand.NewSource(1))
	views, n, err := ring.AppendJSONL(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		emitDecisions(ring, rng, 4096+i*fresh, fresh)
		b.StartTimer()
		if views, _, err = ring.AppendJSONL(views[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendJSONLCold: more than a ring's worth arrived since the last
// call, so every live record renders (ConvertFTrace's work, into blocks).
func BenchmarkAppendJSONLCold(b *testing.B) { benchAppendJSONL(b, 4097) }

// BenchmarkAppendJSONLWarm376: the 376 decisions serve-mixed lands between
// two JSONL snapshots render; the rest of the window is handed out as
// views.
func BenchmarkAppendJSONLWarm376(b *testing.B) { benchAppendJSONL(b, 376) }

// TestConvertFTraceAllocs pins that a conversion's allocations do not grow
// with its decision count: every decision decodes into one record and
// renders into one line buffer.
func TestConvertFTraceAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector allocates on its own")
	}
	// A GC cycle inside a measured run adds the runtime's own allocations.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		img := decisionImage(n)
		return testing.AllocsPerRun(5, func() {
			if err := ConvertFTrace(bytes.NewReader(img), io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(64), allocs(4096); small != large {
		t.Fatalf("a conversion allocates %.0f times at 64 decisions and %.0f at 4096", small, large)
	}
}

// raceBuild is set by race_test.go when the race detector is compiled in.
var raceBuild bool
