package obs

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// The flight-trace JSONL rendering: one {"kind":...} object per line. It is
// a published format — schedinspect explain, expreport and external
// consumers read it — and these appenders write it by hand, byte for byte
// what json.Marshal writes for the record types plus a newline: struct
// member order, the omitempty members (epoch, parent, attrs, v, s), null
// for a nil slice, encoding/json's float rule and its HTML-safe string
// escaping. A NaN or infinite float fails the line with the
// *json.UnsupportedValueError encoding/json returns and appends nothing.
// goldenJSONL (internal/explain) and FuzzAppendJSONL pin the bytes;
// encoding/json is only the reader of this format. The appenders are plain
// append functions, not methods on a writer: a store through a pointer
// costs a GC write barrier while a collection runs, and a conversion
// allocates enough to keep one running.

// AppendJSONFloat appends a finite f as encoding/json writes a float64: the
// shortest 'f' rendering, or 'e' below 1e-6 and from 1e21 on, with a
// negative exponent's leading zero dropped (1e-07 -> 1e-7). NaN and ±Inf
// have no JSON form; callers check for them first.
func AppendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a quoted JSON string escaped the way
// encoding/json escapes by default: quote, backslash and control bytes,
// the HTML-sensitive <, > and &, U+2028 and U+2029, and every byte of
// invalid UTF-8 as the escaped replacement character.
func AppendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029: // LINE and PARAGRAPH SEPARATOR
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFloat appends f as AppendJSONFloat does. NaN and ±Inf have no JSON
// form: for those it appends nothing and, unless an earlier member already
// failed, stores in *err the error json.Marshal returns for the value.
func appendFloat(b []byte, f float64, err *error) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if *err == nil {
			*err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return b
	}
	return AppendJSONFloat(b, f)
}

func appendFloats(b []byte, vs []float64, err *error) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, v, err)
	}
	return append(b, ']')
}

func appendStrings(b []byte, vs []string) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendJSONString(b, v)
	}
	return append(b, ']')
}

func appendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

// endLine finishes a line appended to dst as b: with its newline, or — as
// json.Marshal writes nothing when it fails — as dst untouched and err.
func endLine(dst, b []byte, err error) ([]byte, error) {
	if err != nil {
		return dst, err
	}
	return append(b, '\n'), nil
}

// appendRecord appends r's members and closing brace after open, the
// object's opening bytes.
func appendRecord(b []byte, open string, r *ExplainRecord, err *error) []byte {
	b = append(b, open...)
	if r.Epoch != 0 {
		b = append(b, `"epoch":`...)
		b = append(appendInt(b, r.Epoch), ',')
	}
	b = appendInt(append(b, `"traj":`...), r.Traj)
	b = appendInt(append(b, `,"seq":`...), r.Seq)
	b = appendFloat(append(b, `,"t":`...), r.Time, err)
	b = appendInt(append(b, `,"job":`...), r.JobID)
	b = appendFloat(append(b, `,"wait":`...), r.Wait, err)
	b = appendInt(append(b, `,"procs":`...), r.Procs)
	b = appendFloat(append(b, `,"est":`...), r.Est, err)
	b = appendInt(append(b, `,"rejections":`...), r.Rejections)
	b = appendInt(append(b, `,"max_rejections":`...), r.MaxRejections)
	b = appendInt(append(b, `,"queue":`...), r.QueueLen)
	b = appendInt(append(b, `,"free":`...), r.FreeProcs)
	b = appendInt(append(b, `,"total":`...), r.TotalProcs)
	b = appendFloat(append(b, `,"util":`...), r.Utilization, err)
	b = appendFloats(append(b, `,"features":`...), r.Features, err)
	b = appendFloats(append(b, `,"logits":`...), r.Logits, err)
	b = appendFloats(append(b, `,"probs":`...), r.Probs, err)
	b = appendInt(append(b, `,"action":`...), r.Action)
	b = strconv.AppendBool(append(b, `,"sampled":`...), r.Sampled)
	b = strconv.AppendBool(append(b, `,"rejected":`...), r.Rejected)
	return append(b, '}')
}

// AppendDecisionJSONL appends the {"kind":"decision",...} line for r,
// newline included.
func AppendDecisionJSONL(dst []byte, r *ExplainRecord) ([]byte, error) {
	var err error
	b := appendRecord(dst, `{"kind":"decision",`, r, &err)
	return endLine(dst, b, err)
}

// AppendExplainRecordJSON appends r as json.Marshal(r) writes it: the
// decision line's object without its "kind" member or newline.
func AppendExplainRecordJSON(dst []byte, r *ExplainRecord) ([]byte, error) {
	var err error
	b := appendRecord(dst, "{", r, &err)
	if err != nil {
		return dst, err
	}
	return b, nil
}

// AppendSpanJSONL appends the {"kind":"span",...} line for s, newline
// included.
func AppendSpanJSONL(dst []byte, s *Span) ([]byte, error) {
	var err error
	b := strconv.AppendUint(append(dst, `{"kind":"span","id":`...), uint64(s.ID), 10)
	if s.Parent != 0 {
		b = strconv.AppendUint(append(b, `,"parent":`...), uint64(s.Parent), 10)
	}
	b = AppendJSONString(append(b, `,"name":`...), s.Name)
	b = strconv.AppendInt(append(b, `,"wall0":`...), s.WallStart, 10)
	b = strconv.AppendInt(append(b, `,"wall1":`...), s.WallEnd, 10)
	b = appendFloat(append(b, `,"t0":`...), s.SimStart, &err)
	b = appendFloat(append(b, `,"t1":`...), s.SimEnd, &err)
	if len(s.Attrs) > 0 {
		b = append(b, `,"attrs":[`...)
		for i := range s.Attrs {
			a := &s.Attrs[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = AppendJSONString(append(b, `{"k":`...), a.Key)
			if a.Num != 0 { // -0 is empty too; NaN is not
				b = appendFloat(append(b, `,"v":`...), a.Num, &err)
			}
			if a.Str != "" {
				b = AppendJSONString(append(b, `,"s":`...), a.Str)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return endLine(dst, append(b, '}'), err)
}

// AppendExplainHeaderJSONL appends the explain_header line for h, newline
// included. The Kind discriminator is forced regardless of h.Kind.
func AppendExplainHeaderJSONL(dst []byte, h ExplainHeader) ([]byte, error) {
	b := AppendJSONString(append(dst, `{"kind":"explain_header","mode":`...), h.Mode)
	b = appendStrings(append(b, `,"features":`...), h.Features)
	b = appendInt(append(b, `,"max_rejections":`...), h.MaxRejections)
	return endLine(dst, append(b, '}'), nil)
}

// AppendProcJSONL appends the {"kind":"proc",...} line for s, newline
// included.
func AppendProcJSONL(dst []byte, s ProcStats) ([]byte, error) {
	b := strconv.AppendInt(append(dst, `{"kind":"proc","wall":`...), s.Wall, 10)
	b = appendInt(append(b, `,"goroutines":`...), s.Goroutines)
	b = strconv.AppendUint(append(b, `,"heap_alloc":`...), s.HeapAlloc, 10)
	b = strconv.AppendUint(append(b, `,"heap_sys":`...), s.HeapSys, 10)
	b = strconv.AppendUint(append(b, `,"num_gc":`...), uint64(s.NumGC), 10)
	b = strconv.AppendUint(append(b, `,"gc_pause_total_ns":`...), s.PauseTotal, 10)
	return endLine(dst, append(b, '}'), nil)
}
