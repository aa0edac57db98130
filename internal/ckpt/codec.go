package ckpt

import (
	"encoding/binary"
	"math"
	"slices"
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

// Str writes a u32 byte count followed by the bytes of s.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.Buf = append(w.Buf, s...)
}

// F64s writes a u32 count followed by the values.
func (w *Writer) F64s(s []float64) {
	w.U32(uint32(len(s)))
	b := slices.Grow(w.Buf, 8*len(s))
	for _, v := range s {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
	}
	w.Buf = b
}

// Reader consumes the canonical encoding with one sticky error, so decode
// paths read linearly and check once, at Done. After the first failure
// every read returns a zero value. Every failure is a *CorruptError: a
// short, forged or padded payload fails, it never over-reads, and no count
// sizes an allocation the remaining bytes cannot back.
type Reader struct {
	data []byte
	off  int // bytes consumed; an int, so a read stores no pointer
	err  error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Fail records a decode failure unless one is already recorded; decoders
// use it for semantic checks so the first problem is the one reported.
// The Reader skips its unread bytes, so every later read comes up short
// and returns a zero value.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = corrupt("", format, args...)
	}
	r.off = len(r.data)
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes (0 after a failure).
func (r *Reader) Len() int { return len(r.data) - r.off }

// Done returns the first failure, or an error if any bytes are left unread.
func (r *Reader) Done() error {
	if r.err == nil && r.Len() != 0 {
		r.Fail("%d trailing bytes", r.Len())
	}
	return r.err
}

// short records a read of n bytes past the end.
func (r *Reader) short(n int) {
	r.Fail("truncated: need %d bytes, have %d", n, r.Len())
}

func (r *Reader) take(n int) []byte {
	if r.Len() < n {
		r.short(n)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *Reader) U8() uint8 {
	if r.Len() < 1 {
		r.short(1)
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

func (r *Reader) U32() uint32 {
	if r.Len() < 4 {
		r.short(4)
		return 0
	}
	v := binary.BigEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *Reader) U64() uint64 {
	if r.Len() < 8 {
		r.short(8)
		return 0
	}
	v := binary.BigEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
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

// Bytes reads a count-prefixed byte string, as Writer.Str wrote it, and
// returns a view of the data it reads from (nil on failure).
func (r *Reader) Bytes() []byte {
	n := r.U32()
	if uint64(n) > uint64(r.Len()) {
		r.Fail("%d bytes claimed, %d left", n, r.Len())
		return nil
	}
	return r.take(int(n))
}

// Str reads a count-prefixed string.
func (r *Reader) Str() string { return string(r.Bytes()) }

// F64s reads a count-prefixed []float64 (never nil on success). The count
// is checked against the bytes left before the slice is allocated.
func (r *Reader) F64s() []float64 {
	if s := r.F64sInto(nil); s != nil || r.err != nil {
		return s
	}
	return []float64{}
}

// F64sInto reads a count-prefixed []float64 into dst's backing array when
// it holds the count, so a decoder that refills one value reuses its
// slices; a larger count allocates, after the same check as F64s. A zero
// count yields nil.
func (r *Reader) F64sInto(dst []float64) []float64 {
	n := r.U32()
	if r.err != nil || n == 0 {
		return nil
	}
	if uint64(n)*8 > uint64(r.Len()) {
		r.Fail("%d float64s claimed, %d bytes left", n, r.Len())
		return nil
	}
	out := dst[:0]
	if uint64(cap(out)) < uint64(n) {
		out = make([]float64, n)
	}
	out = out[:n]
	src := r.data[r.off:]
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(src[8*i:]))
	}
	r.off += 8 * int(n)
	return out
}
