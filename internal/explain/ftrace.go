package explain

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"schedinspector/internal/obs"
)

// Binary .ftrace ingestion: the offline half of the arena-backed flight
// recorder. ReadFTrace decodes a .ftrace stream into the same Trace the
// JSONL reader produces; ConvertFTrace renders one as flight-trace JSONL
// through the obs JSONL appenders.
//
// Both readers are resilient to torn tails: a crash mid-write leaves a
// partial segment after the last complete flush, so they return everything
// decoded up to the corruption alongside the error. Callers that care about
// integrity (schedinspect explain) surface the error; the partial prefix
// remains usable for triage.

// ftraceWalker streams segments of a .ftrace container, validating the
// file header, segment framing and per-segment CRC-32C.
type ftraceWalker struct {
	r      *bufio.Reader
	seg    []byte // reused segment payload buffer
	segNo  int
	hdrBuf [12]byte
}

func newFTraceWalker(r io.Reader) (*ftraceWalker, error) {
	w := &ftraceWalker{r: bufio.NewReaderSize(r, 64*1024)}
	if _, err := io.ReadFull(w.r, w.hdrBuf[:]); err != nil {
		return nil, fmt.Errorf("explain: ftrace file header: %w", err)
	}
	if _, err := obs.ParseFTraceFileHeader(w.hdrBuf[:]); err != nil {
		return nil, fmt.Errorf("explain: %w", err)
	}
	return w, nil
}

// next returns the next verified segment payload, io.EOF at a clean end of
// stream, or an error describing the corruption. The returned slice is
// valid until the next call.
func (w *ftraceWalker) next() ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(w.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("explain: ftrace segment %d: truncated header: %w", w.segNo, err)
	}
	length := binary.LittleEndian.Uint32(hdr[0:])
	wantCRC := binary.LittleEndian.Uint32(hdr[4:])
	if length == 0 || length > obs.MaxFTraceSegment {
		return nil, fmt.Errorf("explain: ftrace segment %d: implausible length %d", w.segNo, length)
	}
	if cap(w.seg) < int(length) {
		w.seg = make([]byte, length)
	}
	w.seg = w.seg[:length]
	if _, err := io.ReadFull(w.r, w.seg); err != nil {
		return nil, fmt.Errorf("explain: ftrace segment %d: truncated payload: %w", w.segNo, err)
	}
	if got := obs.FTraceSegmentCRC(w.seg); got != wantCRC {
		return nil, fmt.Errorf("explain: ftrace segment %d: CRC mismatch (got %08x want %08x)", w.segNo, got, wantCRC)
	}
	w.segNo++
	return w.seg, nil
}

// walkRecords iterates the framed records of one segment payload, calling
// visit with each record's kind and body. Unknown kinds are skipped by
// length for forward compatibility.
func walkRecords(segNo int, payload []byte, visit func(kind byte, body []byte) error) error {
	o := 0
	for o < len(payload) {
		if o+5 > len(payload) {
			return fmt.Errorf("explain: ftrace segment %d: truncated record frame at offset %d", segNo, o)
		}
		kind := payload[o]
		length := int(binary.LittleEndian.Uint32(payload[o+1:]))
		o += 5
		if length < 0 || o+length > len(payload) {
			return fmt.Errorf("explain: ftrace segment %d: record body overruns segment at offset %d", segNo, o-5)
		}
		if err := visit(kind, payload[o:o+length]); err != nil {
			return err
		}
		o += length
	}
	return nil
}

// ReadFTrace decodes a binary .ftrace stream into a Trace. On corruption or
// truncation it returns the records decoded so far together with the error,
// so a torn tail still yields the usable prefix.
func ReadFTrace(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	w, err := newFTraceWalker(r)
	if err != nil {
		return tr, err
	}
	for {
		seg, err := w.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			sortRecords(tr.Records)
			return tr, err
		}
		err = walkRecords(w.segNo-1, seg, func(kind byte, body []byte) error {
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
		if err != nil {
			sortRecords(tr.Records)
			return tr, err
		}
	}
	sortRecords(tr.Records)
	return tr, nil
}

// ConvertFTrace streams a binary .ftrace trace to w as flight-trace JSONL —
// record order preserved, one {"kind":...} object per line, each rendered
// by obs.AppendFTraceRecordJSONL (which TraceRing.AppendJSONL renders a live
// ring with). Lines decoded before a corruption are written before the
// error returns. Every decision decodes into one reused record and renders
// into one reused line, so the allocations of a conversion do not grow with
// its decision count.
func ConvertFTrace(r io.Reader, w io.Writer) error {
	walker, err := newFTraceWalker(r)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 64*1024)
	var line []byte
	var dec obs.ExplainRecord
	for {
		seg, err := walker.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			bw.Flush()
			return err
		}
		err = walkRecords(walker.segNo-1, seg, func(kind byte, body []byte) error {
			var err error
			line, err = obs.AppendFTraceRecordJSONL(line[:0], kind, body, &dec)
			if err != nil {
				return err
			}
			_, err = bw.Write(line)
			return err
		})
		if err != nil {
			bw.Flush()
			return err
		}
	}
	return bw.Flush()
}
