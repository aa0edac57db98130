package ckpt

import (
	"encoding/binary"
	"math"
)

// Writer appends the canonical binary encoding every payload in this
// module uses — trainer checkpoints, model files and internal/dist frames:
// integers big-endian, float64s as their IEEE-754 bit patterns. Equal
// values encode to equal bytes on every architecture and in every process
// (unlike gob, whose wire type IDs depend on what the process encoded
// before), which is what lets model and checkpoint files be compared with
// cmp. Buf may be preset to append to a reused buffer.
type Writer struct{ Buf []byte }

func (w *Writer) U8(v uint8)    { w.Buf = append(w.Buf, v) }
func (w *Writer) U32(v uint32)  { w.Buf = binary.BigEndian.AppendUint32(w.Buf, v) }
func (w *Writer) U64(v uint64)  { w.Buf = binary.BigEndian.AppendUint64(w.Buf, v) }
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// F64s writes a u32 count followed by the values.
func (w *Writer) F64s(s []float64) {
	w.U32(uint32(len(s)))
	for _, v := range s {
		w.F64(v)
	}
}

// Reader consumes the canonical encoding with one sticky error, so decode
// paths read linearly and check once, at Done. After the first failure
// every read returns a zero value. Every failure is a *CorruptError: a
// short, forged or padded payload fails, it never over-reads, and no count
// sizes an allocation the remaining bytes cannot back.
type Reader struct {
	data []byte
	err  error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Fail records a decode failure unless one is already recorded; decoders
// use it for semantic checks so the first problem is the one reported.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = corrupt("", format, args...)
	}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.data) }

// Done returns the first failure, or an error if any bytes are left unread.
func (r *Reader) Done() error {
	if r.err == nil && len(r.data) != 0 {
		r.Fail("%d trailing bytes", len(r.data))
	}
	return r.err
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.data) < n {
		r.Fail("truncated: need %d bytes, have %d", n, len(r.data))
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

func (r *Reader) U8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads one byte that must be 0 or 1, so every accepted encoding is
// the canonical one.
func (r *Reader) Bool() bool {
	b := r.U8()
	if b > 1 {
		r.Fail("bool byte %d", b)
	}
	return b == 1
}

// F64s reads a count-prefixed []float64 (never nil on success). The count
// is checked against the bytes left before the slice is allocated.
func (r *Reader) F64s() []float64 {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if uint64(n)*8 > uint64(len(r.data)) {
		r.Fail("%d float64s claimed, %d bytes left", n, len(r.data))
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(r.data[8*i:]))
	}
	r.data = r.data[8*n:]
	return out
}
