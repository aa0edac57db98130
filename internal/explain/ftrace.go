package explain

import (
	"bufio"
	"fmt"
	"io"

	"schedinspector/internal/ckpt"
	"schedinspector/internal/obs"
)

// Binary .ftrace ingestion: the offline half of the arena-backed flight
// recorder. ReadFTrace decodes a .ftrace stream into the same Trace the
// JSONL reader produces; ConvertFTrace renders one as flight-trace JSONL
// through the obs JSONL appenders.
//
// Both readers are resilient to torn tails: a crash mid-write leaves a
// partial frame after the last complete flush, so they return everything
// decoded up to the corruption alongside the error. Callers that care about
// integrity (schedinspect explain) surface the error; the partial prefix
// remains usable for triage.

// VersionError reports a ckpt frame in a .ftrace stream whose version is
// not obs.FTraceVersion: a model or checkpoint file, or a trace written
// with an incompatible record layout.
type VersionError struct {
	Frame   int    // index of the frame in the stream
	Version uint32 // the frame's version
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("explain: ftrace frame %d has version %d, want ftrace version %d",
		e.Frame, e.Version, obs.FTraceVersion)
}

// walkFTrace reads the ckpt frames of a .ftrace stream in order and calls
// visit with the kind and body of each record, until a clean end of stream
// (nil), a corrupt or foreign frame, a record overrunning its frame, or
// visit's error. Unknown kinds reach visit too, which skips them (forward
// compatibility).
func walkFTrace(r io.Reader, visit func(kind byte, body []byte) error) error {
	for frame := 0; ; frame++ {
		version, payload, err := ckpt.ReadFrame(r, obs.MaxFTraceSegment)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("explain: ftrace frame %d: %w", frame, err)
		}
		if version != obs.FTraceVersion {
			return &VersionError{Frame: frame, Version: version}
		}
		for o := 0; o < len(payload); {
			kind, body, next, err := obs.FTraceRecordAt(payload, o)
			if err != nil {
				return fmt.Errorf("explain: ftrace frame %d: %w", frame, err)
			}
			if err := visit(kind, body); err != nil {
				return err
			}
			o = next
		}
	}
}

// ReadFTrace decodes a binary .ftrace stream into a Trace. On corruption or
// truncation it returns the records decoded so far together with the error,
// so a torn tail still yields the usable prefix.
func ReadFTrace(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	err := walkFTrace(r, func(kind byte, body []byte) error {
		switch kind {
		case obs.FTraceKindHeader:
			h, err := obs.DecodeFTraceHeader(body)
			if err != nil {
				return err
			}
			tr.Header = &h
		case obs.FTraceKindSpan:
			s, err := obs.DecodeFTraceSpan(body)
			if err != nil {
				return err
			}
			tr.Spans = append(tr.Spans, s)
		case obs.FTraceKindDecision:
			d, err := obs.DecodeFTraceDecision(body)
			if err != nil {
				return err
			}
			tr.Records = append(tr.Records, d)
		case obs.FTraceKindProc:
			p, err := obs.DecodeFTraceProc(body)
			if err != nil {
				return err
			}
			tr.Procs = append(tr.Procs, p)
		}
		return nil
	})
	sortRecords(tr.Records)
	return tr, err
}

// ConvertFTrace streams a binary .ftrace trace to w as flight-trace JSONL —
// record order preserved, one {"kind":...} object per line, each rendered
// by obs.AppendFTraceRecordJSONL (which TraceRing.AppendJSONL renders a live
// ring with). Lines decoded before a corruption are written before the
// error returns. Every decision decodes into one reused record and renders
// into one reused line, so the allocations of a conversion grow with its
// frames (one payload buffer each), not with its decisions.
func ConvertFTrace(r io.Reader, w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64*1024)
	var line []byte
	var dec obs.ExplainRecord
	err := walkFTrace(r, func(kind byte, body []byte) error {
		var err error
		line, err = obs.AppendFTraceRecordJSONL(line[:0], kind, body, &dec)
		if err != nil {
			return err
		}
		_, err = bw.Write(line)
		return err
	})
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	return err
}
